package streams

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

// batchFunc adapts a function to a batch-aware processor; its
// per-item Process passes items through.
type batchFunc func(*Batch) ([]Item, error)

func (f batchFunc) Process(it Item) (Item, error)         { return it, nil }
func (f batchFunc) ProcessBatch(b *Batch) ([]Item, error) { return f(b) }

// pooledEnvelopes returns n pooled two-row envelopes.
func pooledEnvelopes(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		b := GetBatch("ownership", "in")
		b.Append(int64(2*i), int64(2*i), "k")
		b.Append(int64(2*i+1), int64(2*i+1), "k")
		items[i] = BatchItem(b)
	}
	return items
}

// split hands each row of the input on as its own pooled envelope.
var split = batchFunc(func(b *Batch) ([]Item, error) {
	defer b.Release()
	outs := make([]Item, b.Len())
	for i := range outs {
		row := GetBatch(b.Type, b.Source)
		row.AppendRowFrom(b, i)
		outs[i] = BatchItem(row)
	}
	return outs, nil
})

// failRow fails the envelope holding the given row, releasing it, and
// forwards every other one.
func failRow(row int64) Processor {
	return batchFunc(func(b *Batch) ([]Item, error) {
		if b.Times[0] == row {
			b.Release()
			return nil, fmt.Errorf("row %d refused", row)
		}
		return []Item{BatchItem(b)}, nil
	})
}

// TestEveryFailedBatchReturnsToThePool: a batch belongs to the
// ProcessBatch it is handed, whatever that call returns, so a run whose
// processors fail gives back every pooled buffer, under FailFast and
// under SkipItem alike: the envelope an injected fault hits, one whose
// rows a non-batch-aware processor fails on, the outputs of a split
// the chain never reached, and those it reached before a later one
// failed. The source's unread envelopes are discarded by the caller,
// as Pipeline.Run does after an aborted run.
func TestEveryFailedBatchReturnsToThePool(t *testing.T) {
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	failEveryRow := ProcessorFunc(func(Item) (Item, error) { return nil, errors.New("row refused") })
	cases := []struct {
		name  string
		chain func() []Processor
	}{
		{"injected fault", func() []Processor {
			return []Processor{NewChaosProcessor(pass, FaultSpec{Seed: 1, ErrProb: 1})}
		}},
		{"row expansion", func() []Processor { return []Processor{failEveryRow} }},
		{"outputs not yet piped", func() []Processor { return []Processor{split, failRow(0)} }},
		{"outputs already piped", func() []Processor { return []Processor{split, failRow(1)} }},
	}
	const envelopes = 4
	for _, tc := range cases {
		for _, strategy := range []Strategy{FailFast, SkipItem} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, strategy), func(t *testing.T) {
				before := LiveBatches()
				src := NewSliceSource(pooledEnvelopes(envelopes)...)
				top := NewTopology()
				if err := top.AddStream("in", src); err != nil {
					t.Fatal(err)
				}
				out := NewCollectorSink()
				if err := top.AddSink("out", out); err != nil {
					t.Fatal(err)
				}
				if err := top.AddProcess("worker", "in", "out", tc.chain()...); err != nil {
					t.Fatal(err)
				}
				if err := top.Supervise("worker", strategy); err != nil {
					t.Fatal(err)
				}
				err := top.Run(context.Background())
				h := top.Health()["worker"]
				switch strategy {
				case FailFast:
					if err == nil || h.State != HealthFailed {
						t.Errorf("Run = %v, health %v: want the processor error and the process failed", err, h.State)
					}
				case SkipItem:
					if err != nil || h.Skipped == 0 || h.State != HealthDone {
						t.Errorf("Run = %v, health %+v: want the run done with envelopes dead-lettered", err, h)
					}
				}
				for it, ok := src.Read(); ok; it, ok = src.Read() {
					Discard(it)
				}
				for _, it := range out.Items() {
					Discard(it)
				}
				if live := LiveBatches(); live != before {
					t.Errorf("live batches = %d, want %d: a failed run kept %d buffers", live, before, live-before)
				}
			})
		}
	}
}
