// Package interval implements the maximal-interval algebra used by the
// RTEC complex event processing engine (Artikis et al., EDBT 2014).
//
// A fluent's temporal extent is represented as a List of maximal,
// non-overlapping Spans. Spans are half-open on the right: a Span
// {Start, End} covers every time point T with Start <= T < End. The
// package provides the three interval-manipulation constructs of RTEC
// (union_all, intersect_all and relative_complement_all, Table 1 of the
// paper) together with the normalisation, clipping and point-set
// conversions that the engine's windowing machinery needs.
//
// Time is discrete and linear, represented by integer time points, as
// in the Event Calculus. The zero value of List is the empty interval
// set; the zero value of Span is the empty span.
package interval

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Time is a discrete time point. The paper models time as linear and
// discrete, "represented by integer time-points" (Section 4.1); the
// Dublin streams use Unix seconds, but nothing in this package assumes
// a unit.
type Time int64

// Sentinel time points. MinTime and MaxTime act as -infinity and
// +infinity for open-ended intervals (e.g. a fluent initiated inside
// the working memory and not yet terminated extends to MaxTime until
// the window closes it).
const (
	MinTime Time = math.MinInt64
	MaxTime Time = math.MaxInt64
)

// Span is a half-open interval [Start, End). A Span is empty when
// Start >= End.
type Span struct {
	Start Time
	End   Time
}

// Empty reports whether the span covers no time points.
func (s Span) Empty() bool { return s.Start >= s.End }

// Contains reports whether time point t falls inside the span.
func (s Span) Contains(t Time) bool { return s.Start <= t && t < s.End }

// Intersect returns the overlap of two spans (possibly empty).
func (s Span) Intersect(o Span) Span {
	r := Span{Start: maxTime(s.Start, o.Start), End: minTime(s.End, o.End)}
	if r.Empty() {
		return Span{}
	}
	return r
}

// Duration returns the number of time points covered by the span.
// Empty spans have zero duration. Spans touching the sentinels report
// a saturated duration rather than overflowing.
func (s Span) Duration() Time {
	if s.Empty() {
		return 0
	}
	if s.Start == MinTime || s.End == MaxTime {
		return MaxTime
	}
	return s.End - s.Start
}

// String renders the span as "[start, end)"; sentinel bounds render as
// "-inf"/"+inf".
func (s Span) String() string {
	return fmt.Sprintf("[%s, %s)", timeString(s.Start), timeString(s.End))
}

func timeString(t Time) string {
	switch t {
	case MinTime:
		return "-inf"
	case MaxTime:
		return "+inf"
	}
	return fmt.Sprintf("%d", int64(t))
}

// List is a set of maximal intervals: sorted by start, pairwise
// disjoint and non-adjacent, with every member non-empty. Use
// Normalize to establish the invariant from arbitrary spans; all
// algebra in this package preserves it.
type List []Span

// Normalize sorts the spans, drops empty ones and merges overlapping
// or adjacent ones, returning a canonical maximal-interval list. The
// input is not modified.
func Normalize(spans []Span) List {
	work := make([]Span, 0, len(spans))
	for _, s := range spans {
		if !s.Empty() {
			work = append(work, s)
		}
	}
	if len(work) == 0 {
		return nil
	}
	slices.SortFunc(work, func(a, b Span) int {
		if c := cmp.Compare(a.Start, b.Start); c != 0 {
			return c
		}
		return cmp.Compare(a.End, b.End)
	})
	out := List{work[0]}
	for _, s := range work[1:] {
		last := &out[len(out)-1]
		if s.Start <= last.End { // overlapping or adjacent: merge
			if s.End > last.End {
				last.End = s.End
			}
			continue
		}
		out = append(out, s)
	}
	return out
}

// Valid reports whether the list satisfies the maximal-interval
// invariant (sorted, disjoint, non-adjacent, non-empty).
func (l List) Valid() bool {
	for i, s := range l {
		if s.Empty() {
			return false
		}
		if i > 0 && l[i-1].End >= s.Start {
			return false
		}
	}
	return true
}

// Contains reports whether time point t is covered by the list. This
// is the interval-based holdsAt of RTEC: holdsAt(F=V, T) iff T belongs
// to one of the maximal intervals of holdsFor(F=V, I).
func (l List) Contains(t Time) bool {
	// Binary search for the first span ending after t.
	i := sort.Search(len(l), func(i int) bool { return l[i].End > t })
	return i < len(l) && l[i].Contains(t)
}

// Empty reports whether the list covers no time points.
func (l List) Empty() bool { return len(l) == 0 }

// Duration returns the total number of time points covered. Lists with
// sentinel-bounded spans report a saturated duration.
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func (l List) Duration() Time {
	var total Time
	for _, s := range l {
		d := s.Duration()
		if d == MaxTime || total > MaxTime-d {
			return MaxTime
		}
		total += d
	}
	return total
}

// Clone returns an independent copy of the list.
func (l List) Clone() List {
	if l == nil {
		return nil
	}
	out := make(List, len(l))
	copy(out, l)
	return out
}

// Equal reports whether two lists cover exactly the same time points.
// Both lists must be valid (normalized).
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func (l List) Equal(o List) bool {
	if len(l) != len(o) {
		return false
	}
	for i := range l {
		if l[i] != o[i] {
			return false
		}
	}
	return true
}

// String renders the list as "[a, b) ∪ [c, d)".
func (l List) String() string {
	if len(l) == 0 {
		return "∅"
	}
	parts := make([]string, len(l))
	for i, s := range l {
		parts[i] = s.String()
	}
	return strings.Join(parts, " ∪ ")
}

// Union returns the union of two maximal-interval lists.
func Union(a, b List) List {
	if len(a) == 0 {
		return b.Clone()
	}
	if len(b) == 0 {
		return a.Clone()
	}
	merged := make([]Span, 0, len(a)+len(b))
	merged = append(merged, a...)
	merged = append(merged, b...)
	return Normalize(merged)
}

// UnionAll implements union_all(L, I) of RTEC Table 1: I is the list of
// maximal intervals produced by the union of the lists of maximal
// intervals of L.
func UnionAll(lists ...List) List {
	var spans []Span
	for _, l := range lists {
		spans = append(spans, l...)
	}
	return Normalize(spans)
}

// Intersect returns the intersection of two maximal-interval lists
// using a linear merge.
func Intersect(a, b List) List {
	var out List
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if ov := a[i].Intersect(b[j]); !ov.Empty() {
			out = append(out, ov)
		}
		if a[i].End < b[j].End {
			i++
		} else {
			j++
		}
	}
	return out
}

// IntersectAll implements intersect_all(L, I) of RTEC Table 1: the
// intersection of all the lists. Intersecting zero lists yields the
// empty list (there is no universal interval in a windowed engine).
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func IntersectAll(lists ...List) List {
	if len(lists) == 0 {
		return nil
	}
	out := lists[0].Clone()
	for _, l := range lists[1:] {
		if out.Empty() {
			return nil
		}
		out = Intersect(out, l)
	}
	return out
}

// Complement returns the gaps of l inside the universe span: the time
// points of universe not covered by l.
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func Complement(l List, universe Span) List {
	if universe.Empty() {
		return nil
	}
	var out List
	cursor := universe.Start
	for _, s := range l {
		if s.End <= universe.Start {
			continue
		}
		if s.Start >= universe.End {
			break
		}
		if s.Start > cursor {
			out = append(out, Span{Start: cursor, End: minTime(s.Start, universe.End)})
		}
		if s.End > cursor {
			cursor = s.End
		}
		if cursor >= universe.End {
			return out
		}
	}
	if cursor < universe.End {
		out = append(out, Span{Start: cursor, End: universe.End})
	}
	return out
}

// RelativeComplement returns the time points of a not covered by b.
func RelativeComplement(a, b List) List {
	if a.Empty() || b.Empty() {
		return a.Clone()
	}
	var out List
	j := 0
	for _, s := range a {
		cursor := s.Start
		for j < len(b) && b[j].End <= cursor {
			j++
		}
		k := j
		for k < len(b) && b[k].Start < s.End {
			if b[k].Start > cursor {
				out = append(out, Span{Start: cursor, End: b[k].Start})
			}
			if b[k].End > cursor {
				cursor = b[k].End
			}
			k++
		}
		if cursor < s.End {
			out = append(out, Span{Start: cursor, End: s.End})
		}
	}
	return out
}

// RelativeComplementAll implements relative_complement_all(I', L, I) of
// RTEC Table 1: I is the relative complement of I' with respect to
// every list in L, i.e. the time points of base covered by none of the
// lists. The paper's sourceDisagreement CE is defined with this
// construct (Section 4.3).
func RelativeComplementAll(base List, lists []List) List {
	out := base.Clone()
	for _, l := range lists {
		if out.Empty() {
			return nil
		}
		out = RelativeComplement(out, l)
	}
	return out
}

// Clip restricts the list to the window span, cutting spans that cross
// the window edges. RTEC's working-memory mechanism discards everything
// outside (Q-WM, Q].
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func Clip(l List, window Span) List {
	if window.Empty() {
		return nil
	}
	var out List
	for _, s := range l {
		if ov := s.Intersect(window); !ov.Empty() {
			out = append(out, ov)
		}
	}
	return out
}

// FromTransitions builds a maximal-interval list from initiation and
// termination points under the law of inertia, the way RTEC computes
// holdsFor for simple fluents: a period starts at each initiation point
// (when the fluent does not already hold) and ends at the earliest
// later termination point, or extends to `horizon` if none follows.
// If holdsAtStart is true, a period is open from `start` (the window
// begin) until the first termination.
//
// Initiation semantics follow the Event Calculus convention that a
// fluent initiated at T holds strictly after T: the produced span
// starts at T+1. A fluent terminated at T no longer holds after T: the
// span ends at T+1 (so the fluent still holds AT the termination
// point, per holdsFor/holdsAt in RTEC).
//
// Both point slices may be unsorted and may contain duplicates; they
// are not modified.
//
//lint:allow unusedapi the interval algebra of the paper's Table 1
func FromTransitions(initiations, terminations []Time, holdsAtStart bool, start, horizon Time) List {
	pts := make([]Point, 0, len(initiations)+len(terminations))
	for _, t := range initiations {
		pts = append(pts, Point{Time: t, Init: true})
	}
	for _, t := range terminations {
		pts = append(pts, Point{Time: t})
	}
	slices.SortFunc(pts, ComparePoints)
	if out := AppendInertia(nil, pts, holdsAtStart, start, horizon); len(out) > 0 {
		return out
	}
	return nil
}

// Point is one transition point of a fluent instance: an initiation
// when Init is set, a termination otherwise.
type Point struct {
	Time Time
	Init bool
}

// ComparePoints orders points by time, a termination before an
// initiation at the same time: the order AppendInertia folds them in,
// so that a terminatedAt at T ends the period in progress at T and an
// initiatedAt at T opens the next one — adjacent, hence merged.
func ComparePoints(a, b Point) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	switch {
	case a.Init == b.Init:
		return 0
	case a.Init:
		return 1
	}
	return -1
}

// AppendInertia appends to dst the maximal intervals of one fluent
// instance under the law of inertia, with the semantics of
// FromTransitions: pts must be sorted by ComparePoints (duplicates are
// harmless), holdsAtStart opens a period at start, and a period still
// open after the last point extends to horizon. Adjacent periods are
// merged as they are produced, never with the spans dst already held.
// dst grows at most once, to room for one span per initiation plus the
// seed: a caller that sized it so allocates nothing here.
func AppendInertia(dst List, pts []Point, holdsAtStart bool, start, horizon Time) List {
	bound := 0
	if holdsAtStart {
		bound = 1
	}
	for _, p := range pts {
		if p.Init {
			bound++
		}
	}
	base := len(dst)
	dst = slices.Grow(dst, bound)[:base+bound]
	n := base
	// put writes the period [from, end) after the spans of this instance
	// so far, extending the last one instead when the period starts
	// where it ends. Periods come out in time order and each starts no
	// earlier than the previous one ends, so that is all Normalize
	// would do.
	put := func(from, end Time) {
		switch {
		case from >= end:
		case n > base && from == dst[n-1].End:
			dst[n-1].End = end
		default:
			dst[n] = Span{Start: from, End: end}
			n++
		}
	}
	open, from := holdsAtStart, start
	for _, p := range pts {
		switch {
		case p.Init && !open:
			open, from = true, p.Time+1
		case !p.Init && open:
			open = false
			put(from, p.Time+1)
		}
	}
	if open {
		put(from, horizon)
	}
	return dst[:n]
}

func minTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}
