package streams

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// buildLine wires src -> proc(name, processors) -> collector and
// returns the topology and collector.
func buildLine(t *testing.T, name string, items []Item, processors ...Processor) (*Topology, *CollectorSink) {
	t.Helper()
	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource(items...)); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess(name, "in", "out", processors...); err != nil {
		t.Fatal(err)
	}
	return top, out
}

// blockingSource never yields an item; its context-aware read parks
// until cancellation, like a queue whose producer went silent.
type blockingSource struct{}

func (blockingSource) Read() (Item, bool) { select {} }

func (blockingSource) ReadContext(ctx context.Context) (Item, bool) {
	<-ctx.Done()
	return nil, false
}

func numberedItems(n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{"n": i}
	}
	return items
}

func TestSupervisionSkipItemDeadLetters(t *testing.T) {
	odd := ProcessorFunc(func(it Item) (Item, error) {
		if intOf(it, "n")%2 == 1 {
			return nil, fmt.Errorf("odd item %d", intOf(it, "n"))
		}
		return it, nil
	})
	top, out := buildLine(t, "worker", numberedItems(10), odd)
	if err := top.Supervise("worker", SkipItem); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, skip-item must not abort", err)
	}
	if out.Len() != 5 {
		t.Errorf("collected %d items, want the 5 even ones", out.Len())
	}
	h := top.Health()["worker"]
	if h.State != HealthDone || h.Skipped != 5 {
		t.Errorf("health = %+v, want done with 5 skipped", h)
	}
	dls := top.DeadLetters()
	if len(dls) != 5 {
		t.Fatalf("dead letters = %d, want 5", len(dls))
	}
	for i, dl := range dls {
		if dl.Process != "worker" || dl.Err == nil || dl.Err.Error() != fmt.Sprintf("odd item %d", 2*i+1) {
			t.Errorf("malformed dead letter %+v", dl)
		}
	}
}

func TestSuperviseUnknownProcess(t *testing.T) {
	top := NewTopology()
	if err := top.Supervise("ghost", FailFast); err == nil {
		t.Error("supervising an unknown process must error")
	}
}

func TestHealthBeforeRun(t *testing.T) {
	top, _ := buildLine(t, "worker", numberedItems(1))
	if h := top.Health()["worker"]; h.State != HealthIdle {
		t.Errorf("pre-run health = %v, want idle", h.State)
	}
	if top.DeadLetters() != nil {
		t.Error("pre-run dead letters must be empty")
	}
}

// Two sentinel root causes failing in separate processes must both
// surface through errors.Join, with induced cancellations dropped.
func TestRunJoinsAllRootCauses(t *testing.T) {
	errA := errors.New("root cause A")
	errB := errors.New("root cause B")
	top := NewTopology()
	if err := top.AddStream("a", NewSliceSource(numberedItems(1)...)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddStream("b", NewSliceSource(numberedItems(1)...)); err != nil {
		t.Fatal(err)
	}
	// An infinite bystander: it fails only by induced cancellation.
	inf := sourceFunc(func() (Item, bool) { return Item{"n": 1}, true })
	if err := top.AddStream("c", inf); err != nil {
		t.Fatal(err)
	}
	failWith := func(e error) Processor {
		return ProcessorFunc(func(it Item) (Item, error) {
			time.Sleep(20 * time.Millisecond) // let both roots fire before unwind
			return nil, e
		})
	}
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("pa", "a", "", failWith(errA)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("pb", "b", "", failWith(errB)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("pc", "c", "", pass); err != nil {
		t.Fatal(err)
	}
	err := top.Run(context.Background())
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Errorf("Run = %v, want both root causes joined", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("Run = %v, induced cancellation must be demoted", err)
	}
}

// A root-cause processor error must win over context.DeadlineExceeded
// returned by the processes the deadline killed.
func TestRunPrefersRootCauseOverDeadline(t *testing.T) {
	rootErr := errors.New("the real failure")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	top := NewTopology()
	if err := top.AddStream("a", NewSliceSource(numberedItems(1)...)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddStream("b", blockingSource{}); err != nil {
		t.Fatal(err)
	}
	// pa fails with the root cause exactly when the deadline fires, so
	// it can never be preempted by the run loop's cancellation check;
	// pb is parked in a context-aware read and deterministically
	// returns DeadlineExceeded.
	deadlineFail := ProcessorFunc(func(it Item) (Item, error) {
		<-ctx.Done()
		return nil, rootErr
	})
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("pa", "a", "", deadlineFail); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("pb", "b", "", pass); err != nil {
		t.Fatal(err)
	}
	err := top.Run(ctx)
	if !errors.Is(err, rootErr) {
		t.Errorf("Run = %v, want the root cause", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Run = %v, DeadlineExceeded must be demoted when a root cause exists", err)
	}
}

// Cancelling a running topology with full queues must unwind every
// goroutine (no leak) and tolerate the queue-closer double-close path.
func TestTopologyShutdownNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for iter := 0; iter < 25; iter++ {
		top := NewTopology()
		inf := sourceFunc(func() (Item, bool) { return Item{"n": 1}, true })
		if err := top.AddStream("in", inf); err != nil {
			t.Fatal(err)
		}
		// Capacity-1 queue with a slow consumer: the producer is
		// reliably blocked mid-write when the cancel lands.
		if _, err := top.AddQueue("mid", 1); err != nil {
			t.Fatal(err)
		}
		pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
		slow := ProcessorFunc(func(it Item) (Item, error) {
			time.Sleep(time.Millisecond)
			return it, nil
		})
		if err := top.AddProcess("produce", "in", "mid", pass); err != nil {
			t.Fatal(err)
		}
		if err := top.AddProcess("consume", "mid", "", slow); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- top.Run(ctx) }()
		time.Sleep(2 * time.Millisecond) // let the queue fill
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run = %v, want context.Canceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("cancellation did not stop the topology")
		}
		// The topology's own close must tolerate a racing user Close.
		if q, ok := top.Queue("mid"); ok {
			q.Close() // must not panic
		}
	}
	// Goroutines unwind asynchronously after Run returns; poll.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after 25 cancelled runs",
				before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Flush: a buffering processor must get to emit its tail when the
// input ends, and the flushed items must traverse the rest of the
// processor chain.
type pairBuffer struct {
	buf []Item
}

func (p *pairBuffer) Process(it Item) (Item, error) {
	p.buf = append(p.buf, it)
	if len(p.buf) < 2 {
		return nil, nil
	}
	out := Item{"sum": intOf(p.buf[0], "n") + intOf(p.buf[1], "n")}
	p.buf = nil
	return out, nil
}

func (p *pairBuffer) Flush() ([]Item, error) {
	if len(p.buf) == 0 {
		return nil, nil
	}
	out := []Item{{"sum": intOf(p.buf[0], "n")}}
	p.buf = nil
	return out, nil
}

func TestProcessFlushOnExhaustion(t *testing.T) {
	tag := ProcessorFunc(func(it Item) (Item, error) {
		out := it.Clone()
		out["tagged"] = true
		return out, nil
	})
	top, out := buildLine(t, "pairs", numberedItems(5), &pairBuffer{}, tag)
	if err := top.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := out.Items()
	if len(items) != 3 { // pairs (0,1), (2,3) and the flushed odd 4
		t.Fatalf("collected %d items, want 3 (2 pairs + flushed tail)", len(items))
	}
	for _, it := range items {
		if !it.Bool("tagged") {
			t.Errorf("item %v skipped the downstream processors", it)
		}
	}
	if intOf(items[2], "sum") != 4 {
		t.Errorf("flushed tail = %v, want the lone item 4", items[2])
	}
}
