package interval

import (
	"cmp"
	"slices"
)

// CoverageAtLeast returns the maximal intervals during which at least
// n of the given lists hold simultaneously. It generalises
// intersect_all (n = len(lists)) and union_all (n = 1) and supports
// threshold-style CE definitions such as the paper's "a SCATS
// intersection is congested if at least n (n > 1) of its sensors are
// congested" (Section 4.3).
//
// CoverageAtLeast(0, ...) is undefined over an unbounded universe and
// returns nil.
func CoverageAtLeast(n int, lists []List) List {
	if n <= 0 || n > len(lists) {
		return nil
	}
	type boundary struct {
		t     Time
		delta int
	}
	var bounds []boundary
	for _, l := range lists {
		for _, s := range l {
			bounds = append(bounds, boundary{t: s.Start, delta: +1}, boundary{t: s.End, delta: -1})
		}
	}
	if len(bounds) == 0 {
		return nil
	}
	slices.SortFunc(bounds, func(a, b boundary) int { return cmp.Compare(a.t, b.t) })

	var out []Span
	count := 0
	var openStart Time
	open := false
	for i := 0; i < len(bounds); {
		t := bounds[i].t
		for i < len(bounds) && bounds[i].t == t {
			count += bounds[i].delta
			i++
		}
		if count >= n && !open {
			open = true
			openStart = t
		} else if count < n && open {
			open = false
			out = append(out, Span{Start: openStart, End: t})
		}
	}
	// count returns to zero at the last boundary, so open must be
	// false here; Normalize guards against any degenerate spans.
	return Normalize(out)
}
