package streams

import (
	"context"
	"errors"
	"testing"
)

func chaosDrainAll(src Source) []Item {
	var out []Item
	for {
		it, ok := src.Read()
		if !ok {
			return out
		}
		out = append(out, it)
	}
}

func TestChaosSourcePassthrough(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(20)...), FaultSpec{Seed: 1})
	out := chaosDrainAll(src)
	if len(out) != 20 {
		t.Fatalf("zero-fault spec delivered %d of 20 items", len(out))
	}
	for i, it := range out {
		if intOf(it, "n") != int64(i) {
			t.Fatalf("item %d = %v, order must be preserved", i, it)
		}
	}
	s := src.Stats()
	if s.Dropped+s.Duplicated+s.Delayed+s.Stalled != 0 {
		t.Errorf("stats = %+v, want no faults", s)
	}
}

func TestChaosSourceDeterministic(t *testing.T) {
	spec := FaultSpec{Seed: 42, DropProb: 0.2, DupProb: 0.15, DelayProb: 0.2, DelayMax: 5}
	run := func() []int64 {
		src := NewChaosSource(NewSliceSource(numberedItems(200)...), spec)
		var seq []int64
		for _, it := range chaosDrainAll(src) {
			seq = append(seq, intOf(it, "n"))
		}
		return seq
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("two runs with the same seed differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("two runs with the same seed diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// A different seed must fault differently.
	spec.Seed = 43
	src := NewChaosSource(NewSliceSource(numberedItems(200)...), spec)
	c := chaosDrainAll(src)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != intOf(c[i], "n") {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical fault sequences")
	}
}

func TestChaosSourceDrop(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(1000)...), FaultSpec{Seed: 7, DropProb: 0.3})
	out := chaosDrainAll(src)
	s := src.Stats()
	if s.Dropped == 0 || len(out)+s.Dropped != 1000 {
		t.Errorf("delivered %d, dropped %d, want them to account for all 1000", len(out), s.Dropped)
	}
	if s.Dropped < 200 || s.Dropped > 400 {
		t.Errorf("dropped %d of 1000 at p=0.3 — sampling broken", s.Dropped)
	}
}

func TestChaosSourceDuplicate(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(500)...), FaultSpec{Seed: 7, DupProb: 0.2})
	out := chaosDrainAll(src)
	s := src.Stats()
	if len(out) != 500+s.Duplicated || s.Duplicated == 0 {
		t.Errorf("delivered %d with %d duplicates", len(out), s.Duplicated)
	}
	counts := map[int64]int{}
	for _, it := range out {
		counts[intOf(it, "n")]++
	}
	twice := 0
	for _, c := range counts {
		if c == 2 {
			twice++
		}
	}
	if twice != s.Duplicated {
		t.Errorf("%d items seen twice, stats say %d duplicated", twice, s.Duplicated)
	}
}

func TestChaosSourceDelayReorders(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(300)...), FaultSpec{Seed: 3, DelayProb: 0.3, DelayMax: 10})
	out := chaosDrainAll(src)
	if len(out) != 300 {
		t.Fatalf("delay must not lose items: got %d of 300", len(out))
	}
	inversions := 0
	for i := 1; i < len(out); i++ {
		if intOf(out[i], "n") < intOf(out[i-1], "n") {
			inversions++
		}
	}
	if inversions == 0 {
		t.Error("DelayProb=0.3 produced a fully ordered stream")
	}
	if src.Stats().Delayed == 0 {
		t.Error("no items recorded as delayed")
	}
}

func TestChaosSourceStallForever(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(100)...), FaultSpec{Seed: 1, StallAfter: 30})
	out := chaosDrainAll(src)
	if len(out) != 30 {
		t.Fatalf("dead source delivered %d items, want the 30 pre-stall ones", len(out))
	}
	for i, it := range out {
		if intOf(it, "n") != int64(i) {
			t.Fatalf("pre-stall item %d = %v", i, it)
		}
	}
	if s := src.Stats(); s.Stalled != 70 {
		t.Errorf("stalled = %d, want the 70 swallowed items", s.Stalled)
	}
}

func TestChaosSourceStallRecovers(t *testing.T) {
	src := NewChaosSource(NewSliceSource(numberedItems(100)...), FaultSpec{Seed: 1, StallAfter: 30, StallFor: 20})
	out := chaosDrainAll(src)
	if len(out) != 100 {
		t.Fatalf("recovering stall delivered %d items, want all 100 (backlog flushed)", len(out))
	}
	// Order must be fully preserved: the backlog floods out before the
	// post-stall items.
	for i, it := range out {
		if intOf(it, "n") != int64(i) {
			t.Fatalf("item %d = %v after recovery, want order preserved", i, it)
		}
	}
}

func TestChaosSourceStallBeyondEndFlushesBacklog(t *testing.T) {
	// The feed ends while the mediator is still buffering: a recovering
	// mediator (StallFor > 0) reconnects at end of feed and delivers
	// the whole backlog late; nothing is lost.
	src := NewChaosSource(NewSliceSource(numberedItems(50)...), FaultSpec{Seed: 1, StallAfter: 30, StallFor: 1000})
	out := chaosDrainAll(src)
	if len(out) != 50 {
		t.Fatalf("stall past end of feed delivered %d items, want all 50", len(out))
	}
	for i, it := range out {
		if intOf(it, "n") != int64(i) {
			t.Fatalf("item %d = %v, want order preserved", i, it)
		}
	}
}

// TestChaosSourceDiscardHeld: a reader that stops after a few items
// leaves pooled batches in the source — rows held back by a delay and a
// stall's backlog — and DiscardHeld returns every one to the pool.
func TestChaosSourceDiscardHeld(t *testing.T) {
	for name, spec := range map[string]FaultSpec{
		"delay": {Seed: 5, DelayProb: 0.5, DelayMax: 16},
		"stall": {Seed: 5, StallAfter: 2, StallFor: 1000},
	} {
		t.Run(name, func(t *testing.T) {
			before := LiveBatches()
			var items []Item
			for i := 0; i < 40; i++ {
				b := GetBatch("TestSDE", "chaos")
				for r := 0; r < 4; r++ {
					b.Append(int64(10*i+r), int64(10*i+r), "k")
				}
				items = append(items, BatchItem(b))
			}
			slice := NewSliceSource(items...)
			src := NewChaosSource(slice, spec)
			for i := 0; i < 3; i++ {
				it, ok := src.Read()
				if !ok {
					t.Fatal("the source ended early")
				}
				Discard(it)
			}
			for it, ok := slice.Read(); ok; it, ok = slice.Read() {
				Discard(it)
			}
			if held := LiveBatches() - before; held == 0 {
				t.Fatal("the source holds no batch after three reads: nothing to discard")
			}
			src.DiscardHeld()
			if live := LiveBatches(); live != before {
				t.Errorf("live batches = %d after DiscardHeld, want %d", live, before)
			}
		})
	}
}

func TestChaosProcessorInjectsErrors(t *testing.T) {
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	cp := NewChaosProcessor(pass, FaultSpec{Seed: 5, ErrProb: 0.25})
	failures := 0
	for i := 0; i < 400; i++ {
		if _, err := cp.Process(Item{"n": i}); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("injected error %v must match ErrInjected", err)
			}
			failures++
		}
	}
	if failures == 0 || failures != cp.Stats().Errors {
		t.Errorf("failures = %d, stats = %+v", failures, cp.Stats())
	}
	if failures < 50 || failures > 150 {
		t.Errorf("injected %d of 400 at p=0.25 — sampling broken", failures)
	}
}

// The canonical composition: a flaky processor under SkipItem
// supervision dead-letters the injected faults and the topology
// completes.
func TestChaosProcessorUnderSupervision(t *testing.T) {
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	cp := NewChaosProcessor(pass, FaultSpec{Seed: 11, ErrProb: 0.2})
	top, out := buildLine(t, "flaky", numberedItems(200), cp)
	if err := top.Supervise("flaky", SkipItem); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, skip-item must absorb injected faults", err)
	}
	injected := cp.Stats().Errors
	if injected == 0 {
		t.Fatal("no faults injected")
	}
	if out.Len()+injected != 200 {
		t.Errorf("delivered %d + dead-lettered %d != 200", out.Len(), injected)
	}
	if got := top.Health()["flaky"].Skipped; got != injected {
		t.Errorf("skipped = %d, want %d", got, injected)
	}
}
