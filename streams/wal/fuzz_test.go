package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/internal/codec"
	"github.com/insight-dublin/insight/streams"
)

// Flag bits of FuzzEncodeBatch's shape byte.
const (
	rowsArrivals = 1 << iota
	rowsNoKeyDict
	rowsFloat
	rowsInt
	rowsBool
	rowsStr
	rowsStr2
	rowsList
)

// fuzzRowsBatch builds an n-row batch of the given shape, every value
// drawn from data (cycled): keys and categorical values from a small
// vocabulary so dictionaries repeat, floats by raw bits (NaNs
// included), ints and times signed, arrivals non-decreasing.
func fuzzRowsBatch(n int, shape byte, data []byte) *streams.Batch {
	if len(data) == 0 {
		data = []byte{0}
	}
	at := 0
	next := func() byte {
		v := data[at%len(data)]
		at++
		return v
	}
	vocab := []string{"bus-1", "bus-2", "", "I17", "bus-10", "é", "sensor-9", "x"}
	b := streams.NewBatch("TestSDE", "stream-a")
	// Columns first: creating one appends to b.Cols.
	var cols []*streams.Col
	for _, c := range []struct {
		bit  byte
		name string
		kind streams.ColKind
	}{{rowsStr2, "line", streams.ColStr}, {rowsFloat, "flow", streams.ColFloat}, {rowsInt, "count", streams.ColInt}, {rowsBool, "congested", streams.ColBool}, {rowsStr, "area", streams.ColStr}, {rowsList, "close", streams.ColIntList}} {
		if shape&c.bit != 0 {
			switch c.kind {
			case streams.ColFloat:
				b.FloatCol(c.name)
			case streams.ColInt:
				b.IntCol(c.name)
			case streams.ColBool:
				b.BoolCol(c.name)
			case streams.ColIntList:
				b.ListCol(c.name)
			default:
				b.StrCol(c.name)
			}
		}
	}
	for i := range b.Cols {
		cols = append(cols, &b.Cols[i])
	}
	t, a := int64(int8(next()))*1000, int64(0)
	for r := 0; r < n; r++ {
		t += int64(int8(next()))
		arrival := int64(-1) // Append's "no arrival column"
		if shape&rowsArrivals != 0 {
			a += int64(next() % 4)
			arrival = a
		}
		b.Append(t, arrival, vocab[int(next())%len(vocab)])
		for _, c := range cols {
			switch c.Kind {
			case streams.ColFloat:
				var raw [8]byte
				for i := range raw {
					raw[i] = next()
				}
				c.AppendFloat(math.Float64frombits(binary.LittleEndian.Uint64(raw[:])))
			case streams.ColInt:
				c.AppendInt(int64(int8(next())) << (next() % 56))
			case streams.ColBool:
				c.AppendBool(next()&1 != 0)
			case streams.ColIntList:
				var vals [3]int32
				k := int(next() % 4)
				for i := range vals[:k] {
					vals[i] = int32(next()) << (next() % 24)
				}
				c.AppendList(vals[:k]...)
			default:
				c.AppendStr(vocab[int(next())%len(vocab)])
			}
		}
	}
	if shape&rowsNoKeyDict != 0 {
		b.KIdx, b.KDict = nil, nil
	}
	return b
}

// rowRange narrows b to rows [lo, hi) in place, leaving its key and
// string dictionaries whole: the shape of a recycled pooled batch, whose
// dictionaries keep entries from rows it no longer holds.
func rowRange(b *streams.Batch, lo, hi int) {
	b.Times = b.Times[lo:hi]
	if b.Arrivals != nil {
		b.Arrivals = b.Arrivals[lo:hi]
	}
	b.Keys = b.Keys[lo:hi]
	if b.KIdx != nil {
		b.KIdx = b.KIdx[lo:hi]
	}
	for i := range b.Cols {
		c := &b.Cols[i]
		switch c.Kind {
		case streams.ColFloat:
			c.F = c.F[lo:hi]
		case streams.ColInt:
			c.I = c.I[lo:hi]
		case streams.ColBool:
			c.B = c.B[lo:hi]
		case streams.ColIntList:
			start, end := uint32(0), uint32(0)
			if lo > 0 {
				start = c.Ends[lo-1]
			}
			if hi > 0 {
				end = c.Ends[hi-1]
			}
			ends := make([]uint32, 0, hi-lo)
			for _, e := range c.Ends[lo:hi] {
				ends = append(ends, e-start)
			}
			c.Ends, c.L = ends, c.L[start:max(start, end)]
		default:
			c.SIdx = c.SIdx[lo:hi]
		}
	}
}

// dumpEncode is the oracle of FuzzEncodeBatch: the record payload with
// every dictionary dumped whole, as stored in the batch.
func dumpEncode(dst []byte, b *streams.Batch) []byte {
	dst = append(dst, batchFormat)
	dst = codec.AppendString(dst, b.Type)
	dst = codec.AppendString(dst, b.Source)
	dst = codec.AppendUvarint(dst, uint64(b.Len()))
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
			dst = appendCells(dst, c)
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

// FuzzEncodeBatch holds the encoder to its definition: a batch whose
// dictionaries carry entries its rows do not use — a recycled pooled
// batch — encodes, byte for byte, to the dictionary dump (dumpEncode) of
// a fresh batch its rows were copied into with AppendRowFrom, over every
// column kind, empty and full batches, and batches with and without
// arrivals and a key dictionary. The payload decodes to exactly those
// rows.
func FuzzEncodeBatch(f *testing.F) {
	all := byte(rowsArrivals | rowsFloat | rowsInt | rowsBool | rowsStr | rowsStr2 | rowsList)
	f.Add(uint8(20), uint8(0), uint8(20), all, []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(20), uint8(7), uint8(5), all, []byte{9, 200, 3, 77, 5})
	f.Add(uint8(12), uint8(4), uint8(0), all, []byte{1})
	f.Add(uint8(0), uint8(0), uint8(0), all, []byte(nil))
	f.Add(uint8(9), uint8(3), uint8(4), byte(rowsNoKeyDict|rowsStr), []byte{3, 1, 4, 1, 5, 9, 2, 6})
	f.Add(uint8(30), uint8(10), uint8(10), byte(rowsFloat), []byte{0xff, 0xf8, 0, 1, 0x7f})
	f.Add(uint8(16), uint8(5), uint8(6), byte(rowsArrivals|rowsList), []byte{3, 0, 2, 1, 0xff, 7, 9, 4})
	f.Add(uint8(8), uint8(0), uint8(8), byte(rowsList|rowsStr), []byte{0, 3, 0xff, 0xff, 0xff, 23})
	f.Fuzz(func(t *testing.T, n, lo, span uint8, shape byte, data []byte) {
		b := fuzzRowsBatch(int(n)%128, shape, data)
		l := int(lo) % (b.Len() + 1)
		h := l + int(span)%(b.Len()-l+1)
		fresh := streams.NewBatch(b.Type, b.Source)
		for r := l; r < h; r++ {
			fresh.AppendRowFrom(b, r)
		}
		want := dumpEncode(nil, fresh)
		rowRange(b, l, h)
		prefix := []byte("prefix")
		got := EncodeBatch(append([]byte(nil), prefix...), b)
		if !bytes.HasPrefix(got, prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("rows [%d,%d): EncodeBatch\n  %x\ndictionary dump of a fresh copy\n  %x", l, h, got[len(prefix):], want)
		}
		dec, err := DecodeBatch(want)
		if err != nil {
			t.Fatalf("payload does not decode: %v", err)
		}
		if dec.Len() != b.Len() {
			t.Fatalf("decoded %d rows, want %d", dec.Len(), b.Len())
		}
		for r := 0; r < dec.Len(); r++ {
			if dec.Times[r] != b.Times[r] || dec.Keys[r] != b.Keys[r] {
				t.Fatalf("row %d decodes as (%d,%q), want (%d,%q)", r, dec.Times[r], dec.Keys[r], b.Times[r], b.Keys[r])
			}
			if c := b.Col("close"); c != nil {
				if got, want := dec.Col("close").List(r), c.List(r); !slices.Equal(got, want) {
					t.Fatalf("row %d list decodes as %v, want %v", r, got, want)
				}
			}
		}
	})
}

// FuzzWALDecode feeds arbitrary bytes to every byte-level entry point
// of the package: the record payload decoder, the segment reader and
// Open's torn-tail recovery. The input is interpreted as the frame
// bytes of a single-segment log. Invariants: nothing panics, every
// record the reader returns re-verifies its CRC against the raw bytes,
// and reopening the fuzzed log always yields an appendable log whose
// frontier covers exactly the valid frame prefix.
func FuzzWALDecode(f *testing.F) {
	seed := EncodeBatch(nil, testBatch(6, 300))
	frame := make([]byte, frameHeader+len(seed))
	putU32(frame, uint32(len(seed)))
	putU32(frame[4:], crc32.Checksum(seed, castagnoli))
	copy(frame[frameHeader:], seed)
	two := append(append([]byte(nil), frame...), frame...)
	f.Add([]byte(nil))
	f.Add(append([]byte(nil), frame...)) // one valid frame
	f.Add(two)                           // two valid frames
	f.Add(two[:len(two)-3])              // torn tail
	flipped := append([]byte(nil), frame...)
	flipped[frameHeader+1] ^= 0x20 // payload corruption
	f.Add(flipped)
	lenbomb := append([]byte(nil), frame...)
	lenbomb[3] = 0xff // impossible frame length
	f.Add(lenbomb)
	f.Add(seed) // bare payload without framing

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. Payload decoder: error or valid batch, never a panic.
		if b, err := DecodeBatch(data); err == nil {
			if err := b.Check(); err != nil {
				t.Fatalf("DecodeBatch accepted a batch failing Check: %v", err)
			}
		}

		// 2. Reader over a segment whose frame bytes are the input.
		dir := t.TempDir()
		seg := filepath.Join(dir, segmentName(0))
		content := make([]byte, 0, segHeader+len(data))
		content = append(content, segMagic...)
		content = append(content, make([]byte, 8)...) // base 0
		content = append(content, data...)
		if err := os.WriteFile(seg, content, 0o644); err != nil {
			t.Fatalf("write segment: %v", err)
		}
		r, err := OpenReader(dir, 0)
		if err != nil {
			t.Fatalf("OpenReader on fuzzed segment: %v", err)
		}
		read := int64(0)
		for {
			p, start, end, err := r.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				t.Fatalf("single-segment reader returned corruption error %v (should be a torn tail)", err)
			}
			if start != read || end != start+frameHeader+int64(len(p)) {
				t.Fatalf("offsets [%d,%d) inconsistent, %d read so far", start, end, read)
			}
			// The record must re-verify against the raw input.
			raw := data[start : start+frameHeader+int64(len(p))]
			if crc32.Checksum(p, castagnoli) != leUint32(raw[4:]) {
				t.Fatalf("reader returned a record with bad CRC at offset %d", start)
			}
			read = end
		}
		if read+r.Torn() != int64(len(data)) {
			t.Fatalf("read %d + torn %d != %d input bytes", read, r.Torn(), len(data))
		}

		// 3. Open recovers: the torn tail goes away, appends work.
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		if l.Frontier() != read {
			t.Fatalf("recovered frontier %d, want valid prefix %d", l.Frontier(), read)
		}
		if _, _, err := l.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}
