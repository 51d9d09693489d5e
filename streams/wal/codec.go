package wal

import (
	"fmt"

	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/streams"
)

// Record payload codec. A WAL record carries one transport batch
// (streams.Batch) in a compact binary form that mirrors the PR 5
// columnar layout: occurrence/arrival times as zig-zag delta varints
// (arrival-ordered rows make the deltas tiny), entity keys through the
// batch's key dictionary, and one typed column blob per attribute
// column, with categorical columns keeping their dictionary encoding.
// Decoding rebuilds an equivalent unpooled batch; round-tripping a
// batch through EncodeBatch/DecodeBatch preserves every row bit for
// bit, which is what makes WAL replay feed the engines the exact
// stream the original run consumed.
//
// The append-style primitives and the sticky-error Decoder live in
// internal/codec, shared with the engine snapshot and checkpoint
// formats.

// batchFormat is the record payload version byte.
const batchFormat = 1

// batch payload flag bits.
const (
	flagArrivals = 1 << 0
	flagKeyDict  = 1 << 1
)

// EncodeBatch appends the record payload for b to dst and returns the
// extended slice. The batch is read, not consumed.
func EncodeBatch(dst []byte, b *streams.Batch) []byte {
	dst = append(dst, batchFormat)
	dst = codec.AppendString(dst, b.Type)
	dst = codec.AppendString(dst, b.Source)
	n := b.Len()
	dst = codec.AppendUvarint(dst, uint64(n))
	flags := byte(0)
	if b.Arrivals != nil {
		flags |= flagArrivals
	}
	if b.KIdx != nil {
		flags |= flagKeyDict
	}
	dst = append(dst, flags)
	dst = codec.AppendDeltas(dst, b.Times)
	if b.Arrivals != nil {
		dst = codec.AppendDeltas(dst, b.Arrivals)
	}
	if b.KIdx != nil {
		dst = codec.AppendUvarint(dst, uint64(len(b.KDict)))
		for _, s := range b.KDict {
			dst = codec.AppendString(dst, s)
		}
		for _, id := range b.KIdx {
			dst = codec.AppendUvarint(dst, uint64(id))
		}
	} else {
		for _, k := range b.Keys {
			dst = codec.AppendString(dst, k)
		}
	}
	dst = codec.AppendUvarint(dst, uint64(len(b.Cols)))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		dst = appendColHeader(dst, c)
		if c.Kind != streams.ColStr {
			dst = appendCells(dst, c, 0, c.Len())
			continue
		}
		dst = codec.AppendUvarint(dst, uint64(len(c.Dict)))
		for _, s := range c.Dict {
			dst = codec.AppendString(dst, s)
		}
		for _, id := range c.SIdx {
			dst = codec.AppendUvarint(dst, uint64(id))
		}
	}
	return dst
}

// EncodeBatchRows appends the record payload of rows [lo, hi) of b to
// dst: byte for byte what EncodeBatch writes for a fresh batch
// (streams.NewBatch) holding copies of those rows (AppendRowFrom), so
// the key and string dictionaries carry only the values the rows use,
// in first-use order — never the entries a pooled batch accumulated
// across recycling. The dictionaries are remapped by index, without
// hashing a string, so the equality with a fresh copy needs b's
// dictionaries to hold distinct strings, as every batch built by Append
// and AppendStr (or decoded from their payloads) does; the rows
// round-trip exactly either way. The batch is read, not consumed.
func EncodeBatchRows(dst []byte, b *streams.Batch, lo, hi int) []byte {
	n := hi - lo
	dst = append(dst, batchFormat)
	dst = codec.AppendString(dst, b.Type)
	dst = codec.AppendString(dst, b.Source)
	dst = codec.AppendUvarint(dst, uint64(n))
	if n == 0 {
		// A fresh batch with no rows has no arrival, key-index or column
		// slices at all.
		return append(dst, 0, 0)
	}
	flags := byte(flagKeyDict)
	if b.Arrivals != nil {
		flags |= flagArrivals
	}
	dst = append(dst, flags)
	dst = codec.AppendDeltas(dst, b.Times[lo:hi])
	if b.Arrivals != nil {
		dst = codec.AppendDeltas(dst, b.Arrivals[lo:hi])
	}
	// One remap table serves the key dictionary and every string column:
	// remap[old] is new+1 (0: not used yet), first lists the used old ids
	// in first-use order, and remap is reset through first after each
	// dictionary.
	size := len(b.KDict)
	for ci := range b.Cols {
		size = max(size, len(b.Cols[ci].Dict))
	}
	scratch := make([]uint32, 2*size)
	remap, first := scratch[:size], scratch[size:]
	if b.KIdx != nil {
		dst = appendDictRange(dst, b.KDict, b.KIdx[lo:hi], remap, first)
	} else {
		dst = appendKeysRange(dst, b.Keys[lo:hi])
	}
	dst = codec.AppendUvarint(dst, uint64(len(b.Cols)))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		dst = appendColHeader(dst, c)
		if c.Kind == streams.ColStr {
			dst = appendDictRange(dst, c.Dict, c.SIdx[lo:hi], remap, first)
		} else {
			dst = appendCells(dst, c, lo, hi)
		}
	}
	return dst
}

// appendColHeader appends a column's name and kind byte.
func appendColHeader(dst []byte, c *streams.Col) []byte {
	dst = codec.AppendString(dst, c.Name)
	return append(dst, byte(c.Kind))
}

// appendCells appends rows [lo, hi) of a float, int or bool column.
func appendCells(dst []byte, c *streams.Col, lo, hi int) []byte {
	switch c.Kind {
	case streams.ColFloat:
		for _, v := range c.F[lo:hi] {
			dst = codec.AppendFloat(dst, v)
		}
	case streams.ColInt:
		dst = codec.AppendDeltas(dst, c.I[lo:hi])
	case streams.ColBool:
		for _, v := range c.B[lo:hi] {
			dst = codec.AppendBool(dst, v)
		}
	}
	return dst
}

// appendDictRange appends the dictionary block of ids — the entries of
// dict they use in first-use order, then each id renumbered into it —
// and leaves remap all zero again. remap and first have room for every
// dict entry.
func appendDictRange(dst []byte, dict []string, ids []uint32, remap, first []uint32) []byte {
	used := uint32(0)
	for _, id := range ids {
		if remap[id] == 0 {
			first[used] = id
			used++
			remap[id] = used
		}
	}
	dst = codec.AppendUvarint(dst, uint64(used))
	for _, id := range first[:used] {
		dst = codec.AppendString(dst, dict[id])
	}
	for _, id := range ids {
		dst = codec.AppendUvarint(dst, uint64(remap[id]-1))
	}
	for _, id := range first[:used] {
		remap[id] = 0
	}
	return dst
}

// appendKeysRange is appendDictRange for plain keys (a batch without a
// key dictionary): the rows' keys interned by value.
func appendKeysRange(dst []byte, keys []string) []byte {
	ids := make(map[string]uint32, len(keys))
	var dict []string
	for _, k := range keys {
		if _, ok := ids[k]; !ok {
			ids[k] = uint32(len(dict))
			dict = append(dict, k)
		}
	}
	dst = codec.AppendUvarint(dst, uint64(len(dict)))
	for _, k := range dict {
		dst = codec.AppendString(dst, k)
	}
	for _, k := range keys {
		dst = codec.AppendUvarint(dst, uint64(ids[k]))
	}
	return dst
}

// DecodeBatch rebuilds the batch of a record payload. The returned
// batch is unpooled (Release only marks it dead); every structural
// invariant — row counts, dictionary bounds, column kinds — is
// validated, so arbitrary payload bytes yield an error, never a panic
// or a malformed batch.
func DecodeBatch(payload []byte) (*streams.Batch, error) {
	d := codec.NewDecoder(payload)
	if d.Len() < 1 {
		return nil, fmt.Errorf("wal: empty record payload")
	}
	if v := payload[0]; v != batchFormat {
		return nil, fmt.Errorf("wal: unknown record format %d", v)
	}
	d.Byte()
	b := streams.NewBatch(d.String(), d.String())
	n := d.Count()
	if d.Err() != nil {
		return nil, d.Err()
	}
	flags := d.Byte()
	b.Times = d.Deltas(n)
	if flags&flagArrivals != 0 {
		b.Arrivals = d.Deltas(n)
	}
	if flags&flagKeyDict != 0 {
		nd := d.Count()
		dict := make([]string, 0, nd)
		for i := 0; i < nd; i++ {
			dict = append(dict, d.String())
		}
		idx := make([]uint32, 0, n)
		keys := make([]string, 0, n)
		for i := 0; i < n; i++ {
			id := d.Uvarint()
			if d.Err() == nil && id >= uint64(len(dict)) {
				d.Fail("wal: key index %d outside dictionary of %d", id, len(dict))
			}
			if d.Err() != nil {
				return nil, d.Err()
			}
			idx = append(idx, uint32(id))
			keys = append(keys, dict[id])
		}
		b.KDict, b.KIdx, b.Keys = dict, idx, keys
	} else {
		keys := make([]string, 0, n)
		for i := 0; i < n; i++ {
			keys = append(keys, d.String())
		}
		b.Keys = keys
	}
	nc := d.Count()
	if d.Err() != nil {
		return nil, d.Err()
	}
	for ci := 0; ci < nc; ci++ {
		name := d.String()
		if d.Err() == nil && b.Col(name) != nil {
			return nil, fmt.Errorf("wal: duplicate column %q in record payload", name)
		}
		kind := streams.ColKind(d.Byte())
		if d.Err() != nil {
			return nil, d.Err()
		}
		var col *streams.Col
		switch kind {
		case streams.ColFloat:
			col = b.FloatCol(name)
			col.F = make([]float64, 0, n)
			for i := 0; i < n; i++ {
				col.F = append(col.F, d.Float())
			}
		case streams.ColInt:
			col = b.IntCol(name)
			col.I = d.Deltas(n)
		case streams.ColBool:
			col = b.BoolCol(name)
			col.B = make([]bool, 0, n)
			for i := 0; i < n; i++ {
				col.B = append(col.B, d.Bool())
			}
		case streams.ColStr:
			col = b.StrCol(name)
			nd := d.Count()
			col.Dict = make([]string, 0, nd)
			for i := 0; i < nd; i++ {
				col.Dict = append(col.Dict, d.String())
			}
			col.SIdx = make([]uint32, 0, n)
			for i := 0; i < n; i++ {
				id := d.Uvarint()
				if d.Err() == nil && id >= uint64(len(col.Dict)) {
					d.Fail("wal: string index %d outside dictionary of %d", id, len(col.Dict))
				}
				col.SIdx = append(col.SIdx, uint32(id))
			}
		default:
			return nil, fmt.Errorf("wal: unknown column kind %d", kind)
		}
		if d.Err() != nil {
			return nil, d.Err()
		}
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if d.Len() != 0 {
		return nil, fmt.Errorf("wal: %d trailing bytes after batch payload", d.Len())
	}
	if err := b.Check(); err != nil {
		return nil, err
	}
	return b, nil
}
