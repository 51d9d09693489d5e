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
