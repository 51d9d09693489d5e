package rtec

import (
	"fmt"

	"github.com/insight-dublin/insight/internal/codec"
)

// Binary form of engine snapshots, in the shared codec vocabulary:
// the query clock, then the inertia seed and the Fresh dedup set with
// every string written once (first use is a literal, later uses are
// back-references).
//
//	snapshot := lastQ:varint started:bool nFluents {fluent} nSeen {seen}
//	fluent   := name:ref nInstances {key:ref value:ref nSpans {start:varint-delta end:varint-delta}}
//	seen     := type:ref key:ref time:varint-delta
//	ref      := 0 string | uvarint(index+1)
//
// Encoding is a pure function of the snapshot value, and Engine.Snapshot
// produces the same value for the same engine state whichever store is
// configured, so equal states give byte-identical encodings.

// AppendBinary appends the snapshot's binary form to dst. The error is
// always nil.
func (s *EngineSnapshot) AppendBinary(dst []byte) ([]byte, error) {
	dst = codec.AppendVarint(dst, int64(s.LastQ))
	dst = codec.AppendBool(dst, s.Started)
	refs := make(refWriter)
	dst = codec.AppendUvarint(dst, uint64(len(s.Prev)))
	for _, fs := range s.Prev {
		dst = refs.append(dst, fs.Name)
		dst = codec.AppendUvarint(dst, uint64(len(fs.Instances)))
		for _, inst := range fs.Instances {
			dst = refs.append(dst, inst.Key)
			dst = refs.append(dst, inst.Value)
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
		dst = refs.append(dst, se.Type)
		dst = refs.append(dst, se.Key)
		dst = codec.AppendVarint(dst, int64(se.Time-prev))
		prev = se.Time
	}
	return dst, nil
}

// UnmarshalBinary replaces s with the snapshot AppendBinary wrote. Any
// byte string yields either an error or a snapshot — never a panic, and
// no allocation sized by a count the remaining input could not back.
func (s *EngineSnapshot) UnmarshalBinary(data []byte) error {
	d := codec.NewDecoder(data)
	*s = EngineSnapshot{LastQ: Time(d.Varint()), Started: d.Bool()}
	// Struct slices grow by append, so a hostile count costs nothing
	// beyond the elements the input actually backs.
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
	return nil
}

// refWriter writes each distinct string once: the first use is a
// literal, later uses reference it by order of first use.
type refWriter map[string]uint64

// append writes s: a literal on first use, a reference after.
func (w refWriter) append(dst []byte, s string) []byte {
	if id, ok := w[s]; ok {
		return codec.AppendUvarint(dst, id+1)
	}
	w[s] = uint64(len(w))
	return codec.AppendString(append(dst, 0), s)
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
