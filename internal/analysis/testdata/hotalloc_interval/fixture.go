// Package hifix exercises the hotalloc scoping of package interval. It
// is loaded under the import path "fixture/interval", so the inertia
// kernel AppendInertia is a per-call function: it runs once per fluent
// instance per query and may size dst once, never per span.
package hifix

type Span struct{ Start, End int64 }

type Point struct {
	Time int64
	Init bool
}

// AppendInertia builds each period as a composite literal and appends
// it: both are flagged.
func AppendInertia(dst []Span, pts []Point) []Span {
	from, open := int64(0), false
	for _, p := range pts {
		switch {
		case p.Init && !open:
			from, open = p.Time+1, true
		case !p.Init && open:
			dst = append(dst, Span{Start: from, End: p.Time + 1})
			open = false
		}
	}
	return dst
}

// fromPoints is outside the scope: the same loop passes.
func fromPoints(pts []Point) []Span {
	var out []Span
	for _, p := range pts {
		out = append(out, Span{Start: p.Time, End: p.Time + 1})
	}
	return out
}
