package rtec

import (
	"cmp"
	"slices"
	"strings"
	"testing"
)

// seenModel is the dedup set as a plain set of identities, pruned by a
// full scan, with no snapshot order of its own. It is the oracle
// FuzzSeenEntries holds seenSet to.
type seenModel map[SeenEntry]struct{}

func (m seenModel) add(e SeenEntry) bool {
	if _, dup := m[e]; dup {
		return false
	}
	m[e] = struct{}{}
	return true
}

func (m seenModel) prune(cutoff Time) {
	for e := range m {
		if e.Time <= cutoff {
			delete(m, e)
		}
	}
}

// entries lists the model in (type, key, time) order, compared field by
// field here rather than through SeenEntry.Compare.
func (m seenModel) entries() []SeenEntry {
	var out []SeenEntry
	for e := range m {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b SeenEntry) int {
		return cmp.Or(strings.Compare(a.Type, b.Type), strings.Compare(a.Key, b.Key), cmp.Compare(a.Time, b.Time))
	})
	return out
}

// Types and keys the fuzzer picks from: empty strings, prefixes of one
// another, a NUL and bytes above ASCII, so string order is exercised
// where it is easiest to get wrong.
var (
	seenFuzzTypes = []string{"", "x", "xy", "y", "agree", "disagree"}
	seenFuzzKeys  = []string{"", "a", "ab", "a\x00", "b", "bus-1", "bus-10", "bus-2", "é", "\xff", "I17", "i17"}
)

// FuzzSeenEntries holds the set to the model over random types, keys
// and times — negative, equal across keys and types, far apart —
// interleaved with Prune, Restore round trips and Restores that drop a
// type: Add reports new exactly when the model does, Entries lists what
// the model holds in snapshot order, and Has finds each of them. The
// int64 argument, once a window length, is unused.
func FuzzSeenEntries(f *testing.F) {
	f.Add(int64(64), []byte{0, 1, 2, 3, 0, 1, 3, 3, 1, 2, 0, 255, 5, 0, 0, 2, 6, 0, 0, 0, 0, 4, 4, 9})
	f.Add(int64(1), []byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 7, 0, 0, 0})
	f.Add(int64(1800), []byte{3, 5, 11, 128, 2, 5, 10, 128, 1, 4, 10, 127, 5, 0, 128, 0, 6, 1, 1, 1})
	f.Add(int64(-5), []byte{0, 2, 3, 200, 0, 2, 3, 201, 0, 3, 2, 200})
	f.Fuzz(func(t *testing.T, _ int64, ops []byte) {
		if len(ops) > 4*64 {
			ops = ops[:4*64] // every step re-checks the whole set
		}
		s := newSeenSet()
		m := seenModel{}
		outputs := make(map[string]bool)
		for _, typ := range seenFuzzTypes {
			outputs[typ] = true
		}
		for step := 0; len(ops) >= 4; step++ {
			op, a, b, c := ops[0], ops[1], ops[2], ops[3]
			ops = ops[4:]
			tm := Time(int16(uint16(b)<<8|uint16(c))) - 64 // negative and positive, often equal
			if a&0x80 != 0 {
				tm *= 1 << 40 // far apart
			}
			typ := seenFuzzTypes[int(a&0x7f)%len(seenFuzzTypes)]
			switch op % 8 {
			case 0, 1, 2, 3, 4:
				e := SeenEntry{Type: typ, Key: seenFuzzKeys[int(op>>3)%len(seenFuzzKeys)], Time: tm}
				if got, want := s.Add(e.Type, e.Key, e.Time), m.add(e); got != want {
					t.Fatalf("step %d: Add(%#v) = %v, model %v", step, e, got, want)
				}
			case 5:
				s.Prune(tm)
				m.prune(tm)
			case 6:
				r := newSeenSet()
				r.Restore(s.Entries(), outputs)
				s = r
			case 7:
				outputs[typ] = false
				s.Restore(s.Entries(), outputs)
				outputs[typ] = true
				for e := range m {
					if e.Type == typ {
						delete(m, e)
					}
				}
			}
			want := m.entries()
			if got := s.Entries(); !slices.Equal(got, want) {
				t.Fatalf("step %d: Entries = %#v\nmodel %#v", step, got, want)
			}
			for _, e := range want {
				if !s.Has(e.Type, e.Key, e.Time) {
					t.Fatalf("step %d: Has(%#v) = false", step, e)
				}
			}
		}
	})
}
