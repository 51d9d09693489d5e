// Package hffix exercises the hotalloc scoping of rtec's fold. It is
// loaded under the import path "fixture/fold/rtec", so FoldTransitions,
// ClipInstances and the Fresh dedup snapshot Entries are per-call
// functions: slices sized once per call, nothing allocated per fluent
// instance, per point or per identity.
package hffix

import "sort"

type KV struct{ Key, Value string }

type Span struct{ Start, End int64 }

type Transition struct {
	KV
	Time int64
	Init bool
}

// FoldTransitions files each instance's points in a slice of its own:
// the per-point append is flagged.
func FoldTransitions(trans []Transition) map[KV][]int64 {
	pts := make(map[KV][]int64)
	for _, tr := range trans {
		pts[tr.KV] = append(pts[tr.KV], tr.Time)
	}
	return pts
}

// ClipInstances is the accepted shape: one arena sized before the loop,
// every list cut from it.
func ClipInstances(full map[KV][]Span, window Span) map[KV][]Span {
	n := 0
	for _, l := range full {
		n += len(l)
	}
	arena := make([]Span, n)
	out := make(map[KV][]Span, len(full))
	at := 0
	for kv, l := range full {
		lo := at
		for _, s := range l {
			if s.Start < window.End && s.End > window.Start {
				arena[at] = s
				at++
			}
		}
		if at > lo {
			out[kv] = arena[lo:at:at]
		}
	}
	return out
}

// clipEach is outside the scope: a list per instance passes.
func clipEach(full map[KV][]Span) map[KV][]Span {
	out := make(map[KV][]Span, len(full))
	for kv, l := range full {
		out[kv] = append([]Span(nil), l...)
	}
	return out
}

type SeenEntry struct {
	Type, Key string
	Time      int64
}

type SeenSet struct {
	types map[string]map[string][]int64
}

// Entries appends one entry per identity and sorts through reflection:
// the per-identity append, its composite literal and the reflective
// sort are flagged.
func (s *SeenSet) Entries() []SeenEntry {
	var out []SeenEntry
	for typ, keys := range s.types {
		for key, times := range keys {
			for _, t := range times {
				out = append(out, SeenEntry{Type: typ, Key: key, Time: t})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
