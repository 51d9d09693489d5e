package main

import (
	"fmt"
	"time"
)

// span is one timed interval recorded by the benchmark around a call
// into a layer's public API. Spans are kept in memory for the whole
// rep and leave the process only inside the rep result, after every
// measurement is over.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Layer  string `json:"layer"` // the Go package the time belongs to
	// Boundary is the 1-based query boundary the span belongs to, 0 for
	// spans that cover a whole stream.
	Boundary int   `json:"boundary"`
	StartNs  int64 `json:"start_ns"`
	EndNs    int64 `json:"end_ns"`
}

// tracer records spans against one origin. A nil tracer records
// nothing, so the driving code is the same with tracing on and off.
// It is not safe for concurrent use: during a pipeline run the
// report-arrival poller is its only writer, and the poller is joined
// before anything else records.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now()}
}

// add records a finished span and returns its id (-1 on a nil tracer).
func (t *tracer) add(parent int, name, layer string, boundary int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer, Boundary: boundary,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// timed runs fn inside a new root span and returns fn's wall time: the
// span is the stopwatch of every layer probe.
func (t *tracer) timed(name, layer string, boundary int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	t.add(-1, name, layer, boundary, start, end)
	return end.Sub(start), err
}

// checkSpans verifies the span tree: ids are positions, parents come
// first and contain their children, and every query boundary of the
// real run has exactly one root.
func checkSpans(spans []span, boundaries int) error {
	roots := make(map[int]int)
	for i, s := range spans {
		if s.ID != i {
			return fmt.Errorf("span %d carries id %d", i, s.ID)
		}
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s) ends before it starts", i, s.Name)
		}
		if s.Parent == -1 {
			if s.Name == spanBoundary {
				roots[s.Boundary]++
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			return fmt.Errorf("span %d (%s) has parent %d", i, s.Name, s.Parent)
		}
		p := spans[s.Parent]
		if s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s) leaves its parent %d (%s)", i, s.Name, p.ID, p.Name)
		}
	}
	for b := 1; b <= boundaries; b++ {
		if roots[b] != 1 {
			return fmt.Errorf("boundary %d has %d root spans, want 1", b, roots[b])
		}
	}
	if len(roots) != boundaries {
		return fmt.Errorf("%d boundaries have roots, want %d", len(roots), boundaries)
	}
	return nil
}
