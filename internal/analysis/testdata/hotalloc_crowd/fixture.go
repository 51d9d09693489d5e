// Package hafix exercises the hotalloc scoping of package crowd. It is
// loaded under the import path "fixture/crowd", so Roster.Online and
// SelectNearest — closure included — are the per-round path: no
// reflective sort anywhere in them, no allocation per candidate.
package hafix

import (
	"slices"
	"sort"
	"strings"
)

type participant struct {
	ID string
	D  float64
}

type roster struct{ participants map[string]participant }

// Online rebuilds and reflection-sorts the view on every round: the
// sort is flagged wherever it stands, the append inside the loop too.
func (r *roster) Online() []participant {
	var out []participant
	for _, p := range r.participants {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// SelectNearest's work happens in the closure it returns; the closure
// is part of the hot function.
func SelectNearest(k int) func([]participant) []participant {
	return func(candidates []participant) []participant {
		for i := range candidates {
			scratch := make([]float64, 1)
			scratch[0] = candidates[i].D
		}
		sort.SliceStable(candidates, func(i, j int) bool { return candidates[i].D < candidates[j].D })
		return candidates[:k]
	}
}

// Sorted shows the accepted shape: a typed comparison sort.
func (r *roster) Sorted(view []participant) {
	slices.SortFunc(view, func(a, b participant) int { return strings.Compare(a.ID, b.ID) })
}

// SelectMostReliable is not on the per-round path of the product: the
// same calls pass.
func SelectMostReliable(candidates []participant) {
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].D < candidates[j].D })
}
