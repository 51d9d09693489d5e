// Package codec holds the binary encoding vocabulary shared by every
// durable format of the system: the WAL record payloads (streams/wal),
// the engine snapshots (rtec) and the checkpoint files (package
// insight). It is a leaf — append-style writers over a caller-owned
// buffer and a sticky-error Decoder — so the recognition engine can
// speak the same byte vocabulary as the log without importing it.
package codec

import (
	"encoding/binary"
	"fmt"
	"math"
)

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// AppendVarint appends v in zig-zag varint form.
func AppendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

// AppendString appends a length-prefixed string.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendFloat appends a float64 as its IEEE 754 bits, little-endian.
func AppendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// AppendBool appends a bool as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendDeltas appends an int64 sequence as first value + zig-zag
// deltas — near-sorted sequences (times, counters) shrink to a byte or
// two per entry.
func AppendDeltas(b []byte, vs []int64) []byte {
	prev := int64(0)
	for _, v := range vs {
		b = binary.AppendVarint(b, v-prev)
		prev = v
	}
	return b
}

// Decoder reads back what the Append helpers wrote. Errors are sticky:
// the first truncation or bound violation poisons the decoder, every
// later read returns zero values, and Err reports the failure — so
// decode routines can run straight-line and check once at the end.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps a payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of undecoded bytes.
func (d *Decoder) Len() int { return len(d.b) - d.off }

// Fail poisons the decoder with a caller-detected violation (an index
// outside its dictionary, an unknown kind byte); the first failure
// wins.
func (d *Decoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.Fail("codec: truncated uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.Fail("codec: truncated varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint bounded by the remaining payload size — the
// defensive form for element counts, so corrupt input cannot demand a
// multi-gigabyte allocation before the per-element reads fail.
func (d *Decoder) Count() int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if v > uint64(d.Len()) {
		d.Fail("codec: count %d exceeds %d remaining payload bytes", v, d.Len())
		return 0
	}
	return int(v)
}

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Count()
	if d.err != nil {
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// Float reads a float64.
func (d *Decoder) Float() float64 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 8 {
		d.Fail("codec: truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
	d.off += 8
	return v
}

// Deltas reads n delta-encoded int64 values. n must come from Count
// (every entry occupies at least one byte).
func (d *Decoder) Deltas(n int) []int64 {
	out := make([]int64, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += d.Varint()
		out = append(out, prev)
	}
	return out
}

// Bytes reads n raw bytes as a copy that does not alias the payload.
func (d *Decoder) Bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > d.Len() {
		d.Fail("codec: %d raw bytes requested with %d remaining at offset %d", n, d.Len(), d.off)
		return nil
	}
	out := make([]byte, n)
	copy(out, d.b[d.off:d.off+n])
	d.off += n
	return out
}

// Byte reads one raw byte (a format, flag or kind tag).
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.Len() < 1 {
		d.Fail("codec: truncated byte at offset %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// Bool reads a bool.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// AppendBits appends a bool sequence packed eight to a byte, first
// entry in the low bit.
func AppendBits(b []byte, vs []bool) []byte {
	for i := 0; i < len(vs); i += 8 {
		var x byte
		for j, v := range vs[i:min(i+8, len(vs))] {
			if v {
				x |= 1 << j
			}
		}
		b = append(b, x)
	}
	return b
}

// Bits reads n packed bools; padding bits in the last byte are ignored.
func (d *Decoder) Bits(n int) []bool {
	if d.err != nil {
		return nil
	}
	nb := (n + 7) / 8
	if n < 0 || nb > d.Len() {
		d.Fail("codec: %d packed bits requested with %d bytes remaining at offset %d", n, d.Len(), d.off)
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = d.b[d.off+i/8]&(1<<(i%8)) != 0
	}
	d.off += nb
	return out
}
