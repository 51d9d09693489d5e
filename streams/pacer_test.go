package streams

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestPacerBoundsSkew replays three streams concurrently and checks
// the alignment guarantee: whenever a stream emits an item timestamped
// t, every other live stream has announced progress within slack of t
// — observable as t never exceeding another stream's last emission by
// more than slack plus one item step.
func TestPacerBoundsSkew(t *testing.T) {
	const slack, step, n = 50, 10, 100
	ids := []string{"a", "b", "c"}
	p := NewPacer(slack)
	for _, id := range ids {
		p.Register(id, 0)
	}

	var mu sync.Mutex
	last := map[string]int64{"a": -step, "b": -step, "c": -step}
	var violations []string

	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				ts := int64(i * step)
				if !p.Wait(context.Background(), id, ts) {
					t.Error("Wait returned false without cancellation")
					return
				}
				mu.Lock()
				for other, lo := range last {
					if other == id {
						continue
					}
					// The other stream's announced clock is at most one
					// step past its last emission.
					if ts > lo+step+slack {
						violations = append(violations, id)
					}
				}
				last[id] = ts
				mu.Unlock()
			}
			p.Finish(id)
		}(id)
	}
	wg.Wait()
	if len(violations) > 0 {
		t.Errorf("%d emissions ran more than slack ahead of a live peer", len(violations))
	}
}

// TestPacerFinishedStreamDoesNotConstrain: once a stream ends, the
// rest replay unconstrained by it.
func TestPacerFinishedStreamDoesNotConstrain(t *testing.T) {
	p := NewPacer(10)
	p.Register("live", 0)
	p.Register("dead", 0)
	p.Finish("dead")

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			if !p.Wait(context.Background(), "live", int64(i*100)) {
				t.Error("Wait returned false without cancellation")
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("live stream blocked behind a finished one")
	}
}

// TestPacerWaitCancellation: a stream parked behind a stalled peer is
// released by context cancellation.
func TestPacerWaitCancellation(t *testing.T) {
	p := NewPacer(10)
	p.Register("fast", 0)
	p.Register("stuck", 0)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		done <- p.Wait(ctx, "fast", 1000) // far beyond stuck+slack
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("Wait = true, want false after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait not released by cancellation")
	}
}

// TestPacerWaitFreeAllocatesNothing: a stream within the slack bound
// of every other emits at once and allocates nothing — the wake-up
// cancellation needs is registered only by a Wait that blocks, which
// TestPacerWaitCancellation covers.
func TestPacerWaitFreeAllocatesNothing(t *testing.T) {
	p := NewPacer(10)
	p.Register("a", 0)
	p.Register("b", 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	next := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		next = next%10 + 1
		if !p.Wait(ctx, "a", next) {
			t.Fatal("an unconstrained Wait refused")
		}
	})
	if allocs != 0 {
		t.Errorf("an unconstrained Wait allocates %.1f objects, want 0", allocs)
	}
}

// TestPacedSourceAligns: two paced slice sources drained concurrently
// stay within the slack bound; exhaustion of one frees the other.
func TestPacedSourceAligns(t *testing.T) {
	timeOf := func(it Item) (int64, bool) { return intOf(it, "t"), true }
	mkItems := func(n, step int) []Item {
		items := make([]Item, n)
		for i := range items {
			items[i] = Item{"t": int64(i * step)}
		}
		return items
	}
	p := NewPacer(20)
	// Short stream ends early; the long one must still drain fully.
	short := NewPacedSource(NewSliceSource(mkItems(5, 10)...), p, "short", 0, timeOf)
	long := NewPacedSource(NewSliceSource(mkItems(200, 10)...), p, "long", 0, timeOf)

	var wg sync.WaitGroup
	counts := make([]int, 2)
	for i, src := range []*PacedSource{short, long} {
		wg.Add(1)
		go func(i int, src *PacedSource) {
			defer wg.Done()
			for {
				if _, ok := src.Read(); !ok {
					return
				}
				counts[i]++
			}
		}(i, src)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("paced sources did not drain")
	}
	if counts[0] != 5 || counts[1] != 200 {
		t.Errorf("drained %v items, want [5 200]", counts)
	}
}
