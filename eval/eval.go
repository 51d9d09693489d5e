// Package eval scores recognised complex events against ground truth.
//
// The paper's evaluation demonstrates feasibility (recognition time,
// estimation convergence, latency) but cannot score *accuracy*: the
// recorded Dublin streams have no ground truth. The synthetic
// substrate does, so this package adds the missing measurement — how
// much the self-adaptive and crowd-validated policies actually improve
// congestion detection over static recognition when sources are
// unreliable.
package eval

import (
	"fmt"

	"github.com/insight-dublin/insight/interval"
)

// Confusion is a binary confusion matrix over sampled time points.
type Confusion struct {
	TP, FP, FN, TN int
}

// Precision returns TP / (TP + FP); 1 when nothing was predicted.
func (c Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP / (TP + FN); 1 when nothing was there to find.
func (c Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 1
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (c Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP + TN) / total.
func (c Confusion) Accuracy() float64 {
	total := c.TP + c.FP + c.FN + c.TN
	if total == 0 {
		return 1
	}
	return float64(c.TP+c.TN) / float64(total)
}

// Samples returns the number of sampled points.
func (c Confusion) Samples() int { return c.TP + c.FP + c.FN + c.TN }

// String renders the derived metrics.
func (c Confusion) String() string {
	return fmt.Sprintf("precision %.3f, recall %.3f, F1 %.3f, accuracy %.3f (%d samples)",
		c.Precision(), c.Recall(), c.F1(), c.Accuracy(), c.Samples())
}

// Timeline accumulates per-key recognised intervals across query
// times. Windowed recognition reports overlapping views of the same
// fluent; Add unions them so the timeline holds each key's overall
// recognised extent.
type Timeline struct {
	spans map[string]interval.List
}

// NewTimeline returns an empty timeline.
func NewTimeline() *Timeline {
	return &Timeline{spans: make(map[string]interval.List)}
}

// Add unions intervals into key's timeline.
func (t *Timeline) Add(key string, l interval.List) {
	if len(l) == 0 {
		return
	}
	t.spans[key] = interval.Union(t.spans[key], l)
}

// Get returns key's accumulated intervals.
func (t *Timeline) Get(key string) interval.List { return t.spans[key] }

// Score samples the span every step time points for every key and
// compares the predicted timeline against the truth predicate.
func Score(keys []string, predicted func(key string) interval.List, truth func(key string, t interval.Time) bool, span interval.Span, step interval.Time) (Confusion, error) {
	var c Confusion
	if step <= 0 {
		return c, fmt.Errorf("eval: sample step must be positive, got %d", step)
	}
	if span.Empty() {
		return c, fmt.Errorf("eval: empty evaluation span %v", span)
	}
	for _, key := range keys {
		pred := predicted(key)
		for tp := span.Start; tp < span.End; tp += step {
			p := pred.Contains(tp)
			g := truth(key, tp)
			switch {
			case p && g:
				c.TP++
			case p && !g:
				c.FP++
			case !p && g:
				c.FN++
			default:
				c.TN++
			}
		}
	}
	return c, nil
}
