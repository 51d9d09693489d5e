package rtec

import (
	"slices"

	"github.com/insight-dublin/insight/interval"
)

// FoldTransitions turns a simple fluent's transition points at query
// time q — handed over in any number of parts — into un-clipped maximal
// interval lists under inertia: the fold the engine runs for every
// simple fluent, and the one the holder of a partial fluent's parts runs
// over all of them. prev — the previous query's return value — seeds the
// value at the window start; initiating one value of a fluent instance
// terminates every other value at the same instant. Only the set of
// points matters: order, duplicates and the split into parts do not.
//
// The returned lists are cut from one arena, each capped at its own
// length, so that appending to one copies it instead of overwriting its
// neighbour.
func FoldTransitions(prev map[KV]List, window Span, q Time, parts ...[]Transition) map[KV]List {
	total := 0
	for _, trans := range parts {
		total += len(trans)
	}
	f := fold{
		heads:  make(map[string]int32, len(prev)),
		groups: make([]foldGroup, 0, total+len(prev)),
	}

	// Intern each point's instance and count its points. Transitions
	// must be observable in the window: the earliest effective point is
	// windowStart−1 (whose effect begins at windowStart); anything after
	// q cannot have been derived from window events.
	of := make([]int32, total) // per point, its group; -1 when dropped
	i, last := 0, int32(-1)
	for _, trans := range parts {
		for _, tr := range trans {
			of[i] = -1
			if tr.Time >= window.Start-1 && tr.Time <= q {
				v := tr.Value
				if v == "" {
					v = TrueValue
				}
				// Rules emit a key's points together: skip the lookup.
				if last < 0 || f.groups[last].kv.Key != tr.Key || f.groups[last].kv.Value != v {
					last = f.intern(tr.Key, v)
				}
				g := &f.groups[last]
				g.hi++
				if tr.Kind == Initiate {
					g.inits++
				}
				of[i] = last
			}
			i++
		}
	}
	// Carry over instances holding at the window start (inertia across
	// windows).
	for kv, l := range prev {
		if l.Contains(window.Start) {
			f.groups[f.intern(kv.Key, kv.Value)].holds = true
		}
	}

	// Counting sort by group into one flat slice. It is stable, so each
	// run keeps the order the rules emitted — mostly time order already.
	groups := f.groups
	n, spans := int32(0), 0
	for j := range groups {
		g := &groups[j]
		g.lo, g.hi, n = n, n, n+g.hi
		spans += int(g.inits)
		if g.holds {
			spans++
		}
	}
	pts := make([]interval.Point, n)
	i = 0
	for _, trans := range parts {
		for _, tr := range trans {
			if j := of[i]; j >= 0 {
				g := &groups[j]
				pts[g.hi].Time, pts[g.hi].Init = tr.Time, tr.Kind == Initiate
				g.hi++
			}
			i++
		}
	}

	// An initiation of value V at T terminates every other value of the
	// same key at T: such an instance folds its own points merged with
	// the other values' initiations, in a scratch slice sized for the
	// key with the most points.
	widest := 0
	for j := range groups {
		if g := &groups[j]; g.head == int32(j) && g.next >= 0 {
			k := 0
			for o := g.head; o >= 0; o = groups[o].next {
				k += int(groups[o].hi - groups[o].lo)
			}
			widest = max(widest, k)
		}
	}
	scratch := make([]interval.Point, widest)

	// AppendInertia needs room for at most one span per initiation plus
	// the seed, which is what spans counted: the arena never moves.
	arena := make(List, 0, spans)
	out := make(map[KV]List, len(groups))
	for j := range groups {
		g := &groups[j]
		run := pts[g.lo:g.hi]
		if !slices.IsSortedFunc(run, interval.ComparePoints) {
			slices.SortFunc(run, interval.ComparePoints)
		}
		if groups[g.head].next >= 0 {
			k := copy(scratch, run)
			for o := g.head; o >= 0; o = groups[o].next {
				if o == int32(j) {
					continue
				}
				for _, p := range pts[groups[o].lo:groups[o].hi] {
					if p.Init {
						scratch[k].Time, scratch[k].Init = p.Time, false
						k++
					}
				}
			}
			run = scratch[:k]
			slices.SortFunc(run, interval.ComparePoints)
		}
		lo := len(arena)
		arena = interval.AppendInertia(arena, run, g.holds, window.Start, interval.MaxTime)
		if hi := len(arena); hi > lo {
			out[g.kv] = arena[lo:hi:hi]
		}
	}
	return out
}

// fold interns the fluent instances of one FoldTransitions call: a
// group per (key, value), the values of a key chained from its first
// group.
type fold struct {
	heads  map[string]int32 // key → its first group
	groups []foldGroup      // sized for every point and held instance: never grows
}

// foldGroup is one fluent instance of a fold.
type foldGroup struct {
	kv         KV
	head, next int32 // the key's first group and its next value (-1: none)
	lo, hi     int32 // run in the flat point slice (hi counts, then fills)
	inits      int32
	holds      bool // the instance holds at the window start
}

// intern returns the group of (key, value), adding it — at the end of
// its key's chain — if it is new.
func (f *fold) intern(key, value string) int32 {
	id := int32(len(f.groups))
	head, ok := f.heads[key]
	if !ok {
		f.heads[key] = id
		head = id
	}
	for g := head; ok; g = f.groups[g].next {
		if f.groups[g].kv.Value == value {
			return g
		}
		if f.groups[g].next < 0 {
			f.groups[g].next = id
			break
		}
	}
	f.groups = append(f.groups, foldGroup{kv: KV{Key: key, Value: value}, head: head, next: -1})
	return id
}

// ClipInstances restricts every instance's list to the window and drops
// the instances left empty. The clipped lists are cut from one arena,
// each capped at its own length; the arena is filled in map order, which
// nothing can observe.
func ClipInstances(full map[KV]List, window Span) map[KV]List {
	n := 0
	for _, l := range full {
		n += len(l)
	}
	arena := make(List, n)
	out := make(map[KV]List, len(full))
	at := 0
	for kv, l := range full {
		lo := at
		for _, s := range l {
			if c := s.Intersect(window); !c.Empty() {
				arena[at] = c
				at++
			}
		}
		if at > lo {
			out[kv] = arena[lo:at:at]
		}
	}
	return out
}
