// Package qeefix exercises the hotalloc scoping of package qee. It is
// loaded under the import path "fixture/crowd/qee", so Execute is the
// per-round path: its map tasks' results go into slices sized once, and
// it orders them without reflection.
package qeefix

import (
	"slices"
	"sort"
	"strings"
)

type timing struct {
	Participant string
	Failed      bool
}

type execution struct{ Timings []timing }

// Execute collects one timing per worker by append into a nil slice and
// reflection-sorts them: both are flagged.
func Execute(workers []string) *execution {
	exec := &execution{}
	for _, w := range workers {
		exec.Timings = append(exec.Timings, timing{Participant: w})
	}
	sort.Slice(exec.Timings, func(i, j int) bool { return exec.Timings[i].Participant < exec.Timings[j].Participant })
	return exec
}

// ExecuteSized is not matched by name: the accepted shape, a slice sized
// once and filled by index, then a typed comparison sort.
func ExecuteSized(workers []string) *execution {
	exec := &execution{Timings: make([]timing, len(workers))}
	for i, w := range workers {
		exec.Timings[i].Participant = w
	}
	slices.SortFunc(exec.Timings, func(a, b timing) int { return strings.Compare(a.Participant, b.Participant) })
	return exec
}
