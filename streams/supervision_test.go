package streams

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryPolicyDelay(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Multiplier: 2}
	want := []time.Duration{
		10 * time.Millisecond, // attempt 1
		20 * time.Millisecond,
		40 * time.Millisecond,
		60 * time.Millisecond, // capped
		60 * time.Millisecond,
	}
	for i, w := range want {
		if got := p.Delay(i + 1); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i+1, got, w)
		}
	}
	// Deterministic: same attempt, same delay, every time.
	if p.Delay(3) != p.Delay(3) {
		t.Error("Delay must be deterministic")
	}
	// Defaults fill in.
	var zero RetryPolicy
	if zero.Delay(1) != 10*time.Millisecond {
		t.Errorf("zero-value Delay(1) = %v", zero.Delay(1))
	}
}

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

// A processor failing the first `fails` times it sees the poisoned
// item, succeeding afterwards: a transient fault.
func transientFault(poison int, fails int) Processor {
	var seen atomic.Int64
	return ProcessorFunc(func(it Item) (Item, error) {
		if intOf(it, "n") == int64(poison) && seen.Add(1) <= int64(fails) {
			return nil, fmt.Errorf("transient fault on %d", poison)
		}
		return it, nil
	})
}

func TestSupervisionRestartRecovers(t *testing.T) {
	top, out := buildLine(t, "worker", numberedItems(10), transientFault(5, 2))
	if err := top.Supervise("worker", SupervisionPolicy{
		Strategy: Restart,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, want recovery", err)
	}
	if out.Len() != 10 {
		t.Errorf("collected %d items, want all 10 (poisoned item must be retried, not lost)", out.Len())
	}
	h := top.Health()["worker"]
	if h.State != HealthDone {
		t.Errorf("health = %v, want done", h.State)
	}
	if h.Restarts != 2 {
		t.Errorf("restarts = %d, want 2", h.Restarts)
	}
	if h.Skipped != 0 || len(top.DeadLetters()) != 0 {
		t.Error("recovered item must not be dead-lettered")
	}
}

func TestSupervisionRestartExhaustedEscalates(t *testing.T) {
	always := ProcessorFunc(func(it Item) (Item, error) {
		if intOf(it, "n") == 3 {
			return nil, fmt.Errorf("permanent fault")
		}
		return it, nil
	})
	top, _ := buildLine(t, "worker", numberedItems(10), always)
	if err := top.Supervise("worker", SupervisionPolicy{
		Strategy: Restart,
		Retry:    RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	err := top.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "permanent fault") {
		t.Fatalf("Run = %v, want escalated permanent fault", err)
	}
	if !strings.Contains(err.Error(), "3 attempts exhausted") {
		t.Errorf("error should name the exhausted attempts: %v", err)
	}
	if h := top.Health()["worker"]; h.State != HealthFailed {
		t.Errorf("health = %v, want failed", h.State)
	}
}

func TestSupervisionRestartExhaustedIsolates(t *testing.T) {
	// Two independent lines: the failing one is isolated, the healthy
	// one must finish untouched and Run must not report an error.
	top := NewTopology()
	if err := top.AddStream("bad", NewSliceSource(numberedItems(5)...)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddStream("good", NewSliceSource(numberedItems(5)...)); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}
	boom := ProcessorFunc(func(it Item) (Item, error) { return nil, fmt.Errorf("dead component") })
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("failing", "bad", "", boom); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("healthy", "good", "out", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.Supervise("failing", SupervisionPolicy{
		Strategy:    Restart,
		Retry:       RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		OnExhausted: Isolate,
	}); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v, isolated failure must not abort the topology", err)
	}
	if out.Len() != 5 {
		t.Errorf("healthy line delivered %d items, want 5", out.Len())
	}
	h := top.Health()
	if h["failing"].State != HealthFailed {
		t.Errorf("failing health = %v, want failed", h["failing"].State)
	}
	if h["healthy"].State != HealthDone {
		t.Errorf("healthy health = %v, want done", h["healthy"].State)
	}
	dls := top.DeadLetters()
	if len(dls) != 1 || dls[0].Process != "failing" || dls[0].Attempts != 2 {
		t.Errorf("dead letters = %+v, want the isolated item with 2 attempts", dls)
	}
}

func TestSupervisionIsolateDrainsInput(t *testing.T) {
	// The isolated process is the sole reader of a tiny queue with a
	// large producer stream: without draining, the producer would block
	// forever on the full queue and Run would deadlock.
	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource(numberedItems(500)...)); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("mid", 1); err != nil {
		t.Fatal(err)
	}
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	boom := ProcessorFunc(func(it Item) (Item, error) { return nil, fmt.Errorf("dead consumer") })
	if err := top.AddProcess("feed", "in", "mid", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("consume", "mid", "", boom); err != nil {
		t.Fatal(err)
	}
	if err := top.Supervise("consume", SupervisionPolicy{
		Strategy:    Restart,
		Retry:       RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond, MaxDelay: time.Millisecond},
		OnExhausted: Isolate,
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- top.Run(context.Background()) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("topology deadlocked: isolated consumer did not drain its input")
	}
	if h := top.Health()["feed"]; h.State != HealthDone {
		t.Errorf("producer health = %v, want done (unblocked by the drain)", h.State)
	}
}

func TestSupervisionSkipItemDeadLetters(t *testing.T) {
	odd := ProcessorFunc(func(it Item) (Item, error) {
		if intOf(it, "n")%2 == 1 {
			return nil, fmt.Errorf("odd item %d", intOf(it, "n"))
		}
		return it, nil
	})
	top, out := buildLine(t, "worker", numberedItems(10), odd)
	if err := top.Supervise("worker", SupervisionPolicy{Strategy: SkipItem}); err != nil {
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
	for _, dl := range dls {
		if intOf(dl.Item, "n")%2 != 1 || dl.Err == nil || dl.Process != "worker" {
			t.Errorf("malformed dead letter %+v", dl)
		}
	}
}

func TestSuperviseUnknownProcess(t *testing.T) {
	top := NewTopology()
	if err := top.Supervise("ghost", SupervisionPolicy{}); err == nil {
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

// Queue semantics must survive a writer being restarted: while the
// writer is backing off, the queue stays open and the reader keeps
// consuming; no premature end of stream, no write-on-closed error.
func TestQueueSurvivesWriterRestart(t *testing.T) {
	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource(numberedItems(50)...)); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("mid", 4); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}
	// The writer fails twice on each of the items 7, 17, 27, 37, 47
	// before letting them through: transient faults on five items.
	var mu sync.Mutex
	perItem := map[int64]int{}
	flaky := ProcessorFunc(func(it Item) (Item, error) {
		n := intOf(it, "n")
		if n%10 != 7 {
			return it, nil
		}
		mu.Lock()
		perItem[n]++
		fail := perItem[n] <= 2
		mu.Unlock()
		if fail {
			return nil, fmt.Errorf("flaky write stage at %d", n)
		}
		return it, nil
	})
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("writer", "in", "mid", flaky); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("reader", "mid", "out", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.Supervise("writer", SupervisionPolicy{
		Strategy: Restart,
		Retry:    RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	}); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if out.Len() != 50 {
		t.Errorf("reader saw %d items, want all 50 despite writer restarts", out.Len())
	}
	if h := top.Health()["writer"]; h.Restarts != 10 {
		t.Errorf("writer restarts = %d, want 10 (2 per flaky item)", h.Restarts)
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
