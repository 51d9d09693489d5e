package rtec

import (
	"fmt"

	"github.com/insight-dublin/insight/internal/codec"
)

// Binary form of engine snapshots: the canonical columnar rows written
// column by column with the shared codec vocabulary — times as zig-zag
// deltas, entity keys and categorical values through their
// dictionaries, packed value columns holding the present cells only
// behind a bit-packed presence mask — followed by the inertia seed and
// the Fresh dedup set with every string written once (first use is a
// literal, later uses are back-references).
//
//	snapshot := lastQ:varint started:bool nTypes {type} nFluents {fluent} nSeen {seen}
//	type     := lateMin:varint name:string nRows times:deltas nKeys {key:string} {kidx:uvarint} nCols {col}
//	col      := name:string kind:byte masked:byte [present:bits] cells
//	cells    := float: 8 bytes LE per present row | int, goint: varint per present row
//	          | bool: bits over all rows | str: nDict {string} uvarint per present row
//	          | any: tag:byte value per present row
//	fluent   := name:ref nInstances {key:ref value:ref nSpans {start:varint-delta end:varint-delta}}
//	seen     := type:ref key:ref time:varint-delta
//	ref      := 0 string | uvarint(index+1)
//
// Encoding is a pure function of the snapshot value, and Engine.Snapshot
// produces the same value for the same engine state whichever store is
// configured, so equal states give byte-identical encodings.

// Value tags of a boxed (ColAny) cell.
const (
	tagFloat byte = iota
	tagInt64
	tagInt
	tagBool
	tagStr
)

// AppendBinary appends the snapshot's binary form to dst. The snapshot
// must be well-formed (Engine.Snapshot output, or anything Restore
// accepts); the only reported error is a boxed attribute value of a
// type no column kind covers.
func (s *EngineSnapshot) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendVarint(dst, int64(s.LastQ))
	dst = codec.AppendBool(dst, s.Started)
	dst = codec.AppendUvarint(dst, uint64(len(s.Types)))
	for i := range s.Types {
		var err error
		if dst, err = s.Types[i].encode(dst); err != nil {
			return nil, err
		}
	}
	// Every string goes through one table; each field remembers its last
	// string, so a run of equal strings — instances sorted by key, Seen
	// entries grouped by type and key — probes the table once.
	refs := make(refWriter)
	var name, key, val refMemo
	dst = codec.AppendUvarint(dst, uint64(len(s.Prev)))
	for _, fs := range s.Prev {
		dst = name.append(dst, refs, fs.Name)
		dst = codec.AppendUvarint(dst, uint64(len(fs.Instances)))
		for _, inst := range fs.Instances {
			dst = key.append(dst, refs, inst.Key)
			dst = val.append(dst, refs, inst.Value)
			dst = codec.AppendUvarint(dst, uint64(len(inst.Spans)))
			prev := Time(0)
			for _, sp := range inst.Spans {
				dst = codec.AppendVarint(dst, int64(sp.Start-prev))
				dst = codec.AppendVarint(dst, int64(sp.End-sp.Start))
				prev = sp.End
			}
		}
	}
	dst = codec.AppendUvarint(dst, uint64(len(s.Seen)))
	prev := Time(0)
	for _, se := range s.Seen {
		dst = name.append(dst, refs, se.Type)
		dst = key.append(dst, refs, se.Key)
		dst = codec.AppendVarint(dst, int64(se.Time-prev))
		prev = se.Time
	}
	return dst, nil
}

// UnmarshalBinary replaces s with the snapshot AppendBinary wrote. Any
// byte string yields either an error or a snapshot that passes
// Restore's structural validation — never a panic, and no allocation
// sized by a count the remaining input could not back.
func (s *EngineSnapshot) UnmarshalBinary(data []byte) error {
	d := codec.NewDecoder(data)
	*s = EngineSnapshot{LastQ: Time(d.Varint()), Started: d.Bool()}
	// Struct slices grow by append, so a hostile count costs nothing
	// beyond the elements the input actually backs.
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		var ts TypeSnapshot
		ts.decode(d)
		s.Types = append(s.Types, ts)
	}
	var refs refReader
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		fs := FluentSnapshot{Name: refs.read(d)}
		for j, ni := 0, d.Count(); j < ni && d.Err() == nil; j++ {
			inst := InstanceSnapshot{Key: refs.read(d), Value: refs.read(d)}
			if ns := d.Count(); ns > 0 {
				inst.Spans = make(List, ns)
			}
			prev := Time(0)
			for k := range inst.Spans {
				start := prev + Time(d.Varint())
				end := start + Time(d.Varint())
				inst.Spans[k] = Span{Start: start, End: end}
				prev = end
			}
			fs.Instances = append(fs.Instances, inst)
		}
		s.Prev = append(s.Prev, fs)
	}
	prev := Time(0)
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		se := SeenEntry{Type: refs.read(d), Key: refs.read(d)}
		prev += Time(d.Varint())
		se.Time = prev
		s.Seen = append(s.Seen, se)
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("rtec: %d trailing bytes after engine snapshot", d.Len())
	}
	for i := range s.Types {
		if err := s.Types[i].Rows.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Every carrier struct (TypeSnapshot, Block, BCol) has its own
// encode/decode pair, however small: that is what makes the
// snapshotdrift analyzer hold each of them to "every field written,
// every field read back" on its own, instead of vouching for them
// through whichever store method also mentions their fields.

func (ts *TypeSnapshot) encode(dst []byte) ([]byte, error) {
	dst = codec.AppendVarint(dst, int64(ts.LateMin))
	return ts.Rows.encode(dst)
}

func (ts *TypeSnapshot) decode(d *codec.Decoder) {
	ts.LateMin = Time(d.Varint())
	ts.Rows.decode(d)
}

// encode appends the rows of a dictionary-keyed block (Keys nil).
func (b *Block) encode(dst []byte) ([]byte, error) {
	dst = codec.AppendString(dst, b.Type)
	n := len(b.Times)
	dst = codec.AppendUvarint(dst, uint64(n))
	dst = codec.AppendDeltas(dst, b.Times)
	dst = codec.AppendUvarint(dst, uint64(len(b.KDict)))
	for _, k := range b.KDict {
		dst = codec.AppendString(dst, k)
	}
	for _, kid := range b.KIdx {
		dst = codec.AppendUvarint(dst, uint64(kid))
	}
	dst = codec.AppendUvarint(dst, uint64(len(b.Cols)))
	for ci := range b.Cols {
		var err error
		if dst, err = b.Cols[ci].encode(dst); err != nil {
			return nil, fmt.Errorf("rtec: snapshot of %s: %w", b.Type, err)
		}
	}
	return dst, nil
}

func (b *Block) decode(d *codec.Decoder) {
	b.Type = d.String()
	n := d.Count()
	b.Times = d.Deltas(n)
	if nk := d.Count(); nk > 0 {
		b.KDict = make([]string, nk)
		for i := range b.KDict {
			b.KDict[i] = d.String()
		}
	}
	b.KIdx = make([]uint32, n)
	for i := range b.KIdx {
		b.KIdx[i] = uint32(d.Uvarint())
	}
	for ci, nc := 0, d.Count(); ci < nc && d.Err() == nil; ci++ {
		var c BCol
		c.decode(d, n)
		b.Cols = append(b.Cols, c)
	}
}

// encode appends one column; only present cells carry a value.
func (c *BCol) encode(dst []byte) ([]byte, error) {
	dst = codec.AppendString(dst, c.Name)
	dst = append(dst, byte(c.Kind))
	dst = codec.AppendBool(dst, c.Present != nil)
	if c.Present != nil {
		dst = codec.AppendBits(dst, c.Present)
	}
	switch c.Kind {
	case ColFloat:
		for j, v := range c.F {
			if c.present(j) {
				dst = codec.AppendFloat(dst, v)
			}
		}
	case ColInt:
		for j, v := range c.I {
			if c.present(j) {
				dst = codec.AppendVarint(dst, v)
			}
		}
	case ColIntGo:
		for j, v := range c.N {
			if c.present(j) {
				dst = codec.AppendVarint(dst, int64(v))
			}
		}
	case ColBool:
		dst = codec.AppendBits(dst, c.B)
	case ColStr:
		dst = codec.AppendUvarint(dst, uint64(len(c.Dict)))
		for _, v := range c.Dict {
			dst = codec.AppendString(dst, v)
		}
		for j, si := range c.SIdx {
			if c.present(j) {
				dst = codec.AppendUvarint(dst, uint64(si))
			}
		}
	case ColAny:
		for j, v := range c.A {
			if !c.present(j) {
				continue
			}
			switch v := v.(type) {
			case float64:
				dst = codec.AppendFloat(append(dst, tagFloat), v)
			case int64:
				dst = codec.AppendVarint(append(dst, tagInt64), v)
			case int:
				dst = codec.AppendVarint(append(dst, tagInt), int64(v))
			case bool:
				dst = codec.AppendBool(append(dst, tagBool), v)
			case string:
				dst = codec.AppendString(append(dst, tagStr), v)
			default:
				return nil, fmt.Errorf("attribute %q has unsupported type %T", c.Name, v)
			}
		}
	default:
		return nil, fmt.Errorf("attribute %q has unknown column kind %d", c.Name, c.Kind)
	}
	return dst, nil
}

// decode reads one column of n rows. Absent cells decode to the kind's
// zero value.
func (c *BCol) decode(d *codec.Decoder, n int) {
	c.Name = d.String()
	c.Kind = ColKind(d.Byte())
	if d.Bool() {
		c.Present = d.Bits(n)
	}
	if d.Err() != nil {
		return
	}
	switch c.Kind {
	case ColFloat:
		c.F = make([]float64, n)
		for j := range c.F {
			if c.present(j) {
				c.F[j] = d.Float()
			}
		}
	case ColInt:
		c.I = make([]int64, n)
		for j := range c.I {
			if c.present(j) {
				c.I[j] = d.Varint()
			}
		}
	case ColIntGo:
		c.N = make([]int, n)
		for j := range c.N {
			if c.present(j) {
				c.N[j] = int(d.Varint())
			}
		}
	case ColBool:
		c.B = d.Bits(n)
		for j := range c.B {
			c.B[j] = c.B[j] && c.present(j)
		}
	case ColStr:
		if nd := d.Count(); nd > 0 {
			c.Dict = make([]string, nd)
			for i := range c.Dict {
				c.Dict[i] = d.String()
			}
		}
		c.SIdx = make([]uint32, n)
		for j := range c.SIdx {
			if c.present(j) {
				c.SIdx[j] = uint32(d.Uvarint())
			}
		}
	case ColAny:
		c.A = make([]any, n)
		for j := range c.A {
			if !c.present(j) {
				continue
			}
			switch tag := d.Byte(); tag {
			case tagFloat:
				c.A[j] = d.Float()
			case tagInt64:
				c.A[j] = d.Varint()
			case tagInt:
				c.A[j] = int(d.Varint())
			case tagBool:
				c.A[j] = d.Bool()
			case tagStr:
				c.A[j] = d.String()
			default:
				d.Fail("rtec: attribute %q has unknown value tag %d", c.Name, tag)
			}
			if d.Err() != nil {
				return
			}
		}
	default:
		d.Fail("rtec: attribute %q has unknown column kind %d", c.Name, c.Kind)
	}
}

// validate checks the structural invariants Restore and the bulk block
// path rely on: dictionary-keyed rows in time order, every column one
// cell per row, every dictionary index in range, boxed cells of a
// supported type.
func (b *Block) validate() error {
	n := len(b.Times)
	if b.Keys != nil || len(b.KIdx) != n {
		return fmt.Errorf("rtec: snapshot rows of %q are not dictionary-keyed (%d rows, %d key ids)", b.Type, n, len(b.KIdx))
	}
	for i, kid := range b.KIdx {
		if int(kid) >= len(b.KDict) {
			return fmt.Errorf("rtec: snapshot rows of %q: key id %d outside dictionary of %d", b.Type, kid, len(b.KDict))
		}
		if i > 0 && b.Times[i] < b.Times[i-1] {
			return fmt.Errorf("rtec: snapshot rows of %q not time-sorted at index %d", b.Type, i)
		}
	}
	names := make(map[string]bool, len(b.Cols))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if names[c.Name] {
			return fmt.Errorf("rtec: snapshot rows of %q: duplicate column %q", b.Type, c.Name)
		}
		names[c.Name] = true
		if c.Kind > ColAny {
			return fmt.Errorf("rtec: snapshot rows of %q: column %q has unknown kind %d", b.Type, c.Name, c.Kind)
		}
		if colLen(c) != n || (c.Present != nil && len(c.Present) != n) {
			return fmt.Errorf("rtec: snapshot rows of %q: column %q does not have one cell per row", b.Type, c.Name)
		}
		for j := 0; j < n; j++ {
			if !c.present(j) {
				continue
			}
			switch c.Kind {
			case ColStr:
				if int(c.SIdx[j]) >= len(c.Dict) {
					return fmt.Errorf("rtec: snapshot rows of %q: column %q string id %d outside dictionary of %d", b.Type, c.Name, c.SIdx[j], len(c.Dict))
				}
			case ColAny:
				switch c.A[j].(type) {
				case float64, int64, int, bool, string:
				default:
					return fmt.Errorf("rtec: snapshot rows of %q: attribute %q has unsupported type %T", b.Type, c.Name, c.A[j])
				}
			}
		}
	}
	return nil
}

// refWriter writes each distinct string once: the first use is a
// literal, later uses reference it by order of first use.
type refWriter map[string]uint64

// append writes s and returns its reference id.
func (w refWriter) append(dst []byte, s string) ([]byte, uint64) {
	if id, ok := w[s]; ok {
		return codec.AppendUvarint(dst, id+1), id
	}
	id := uint64(len(w))
	w[s] = id
	return codec.AppendString(append(dst, 0), s), id
}

// refMemo is one field's writer over a shared refWriter: it remembers
// the last string it wrote, so a run of equal strings probes the table
// once, and the bytes stay exactly refWriter's.
type refMemo struct {
	s   string
	id  uint64
	set bool
}

func (m *refMemo) append(dst []byte, w refWriter, s string) []byte {
	if m.set && s == m.s {
		return codec.AppendUvarint(dst, m.id+1)
	}
	dst, m.id = w.append(dst, s)
	m.s, m.set = s, true
	return dst
}

// refReader resolves what refWriter wrote.
type refReader []string

func (r *refReader) read(d *codec.Decoder) string {
	id := d.Uvarint()
	if id == 0 {
		s := d.String()
		*r = append(*r, s)
		return s
	}
	if id > uint64(len(*r)) {
		d.Fail("rtec: string reference %d outside table of %d", id, len(*r))
		return ""
	}
	return (*r)[id-1]
}
