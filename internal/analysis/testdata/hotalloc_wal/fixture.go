// Package hwfix exercises the hotalloc scoping of package wal. It is
// loaded under the import path "fixture/wal", so the range encoder
// EncodeBatchRows and its column writers appendDictRange and appendCells
// are per-call functions: one remap table sized per call, nothing
// allocated per row or per dictionary entry.
package hwfix

type Col struct {
	F    []float64
	SIdx []uint32
	Dict []string
}

// EncodeBatchRows builds the range's dictionary by appending each first
// use to a fresh slice: the append is flagged.
func EncodeBatchRows(dst []byte, c *Col, lo, hi int) []byte {
	remap := make([]uint32, len(c.Dict))
	var used []string
	for _, id := range c.SIdx[lo:hi] {
		if remap[id] == 0 {
			used = append(used, c.Dict[id])
			remap[id] = uint32(len(used))
		}
	}
	for _, s := range used {
		dst = appendString(dst, s)
	}
	return dst
}

// appendDictRange is the accepted shape: the caller sized remap and
// first, the loops only index them.
func appendDictRange(dst []byte, dict []string, ids, remap, first []uint32) []byte {
	used := uint32(0)
	for _, id := range ids {
		if remap[id] == 0 {
			first[used] = id
			used++
			remap[id] = used
		}
	}
	for _, id := range first[:used] {
		dst = appendString(dst, dict[id])
		remap[id] = 0
	}
	return dst
}

// appendString is outside the scope: its append passes.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		dst = append(dst, s[i])
	}
	return dst
}
