package qee

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/geo"
)

func fixedResponder(label string) func(Query) (string, time.Duration) {
	return func(Query) (string, time.Duration) { return label, 0 }
}

func testEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Options{Seed: 1})
	devices := []Device{
		{Participant: crowd.Participant{ID: "w1"}, Network: WiFi, Respond: fixedResponder("yes")},
		{Participant: crowd.Participant{ID: "w2"}, Network: ThreeG, Respond: fixedResponder("yes")},
		{Participant: crowd.Participant{ID: "w3"}, Network: TwoG, Respond: fixedResponder("no")},
	}
	for _, d := range devices {
		if err := e.Connect(d); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func selected(ids ...string) []crowd.Participant {
	out := make([]crowd.Participant, len(ids))
	for i, id := range ids {
		out[i] = crowd.Participant{ID: id}
	}
	return out
}

var testQuery = Query{
	ID:       "q1",
	Question: "Is there a traffic congestion at O'Connell Bridge?",
	Answers:  []string{"yes", "no"},
	Pos:      geo.At(53.3472, -6.2592),
}

func TestConnectValidation(t *testing.T) {
	e := NewEngine(Options{})
	if err := e.Connect(Device{}); err == nil {
		t.Error("empty participant ID must error")
	}
	if err := e.Connect(Device{Participant: crowd.Participant{ID: "x"}}); err == nil {
		t.Error("nil Respond must error")
	}
}

func TestExecuteMapReduce(t *testing.T) {
	e := testEngine(t)
	exec, err := e.Execute(context.Background(), testQuery, selected("w1", "w2", "w3"))
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Answers) != 3 {
		t.Fatalf("answers = %v", exec.Answers)
	}
	if exec.Counts["yes"] != 2 || exec.Counts["no"] != 1 {
		t.Errorf("reduce counts = %v", exec.Counts)
	}
	if len(exec.Timings) != 3 {
		t.Fatalf("timings = %v", exec.Timings)
	}
	for _, tm := range exec.Timings {
		if tm.Trigger < 38*time.Millisecond || tm.Trigger > 55*time.Millisecond {
			t.Errorf("trigger %v out of the paper's 38-55 ms band", tm.Trigger)
		}
		if tm.Push <= 0 || tm.Comm <= 0 {
			t.Errorf("non-positive step latency: %+v", tm)
		}
		if tm.Missed {
			t.Errorf("no deadline set, nothing should be missed: %+v", tm)
		}
	}
}

func TestExecuteSkipsDisconnected(t *testing.T) {
	e := testEngine(t)
	exec, err := e.Execute(context.Background(), testQuery, selected("w1", "ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Answers) != 1 || exec.Answers[0].Participant != "w1" {
		t.Errorf("answers = %v", exec.Answers)
	}
}

func TestExecuteNoWorkers(t *testing.T) {
	e := testEngine(t)
	if _, err := e.Execute(context.Background(), testQuery, selected("ghost")); err == nil {
		t.Error("no connected workers must error")
	}
	if _, err := e.Execute(context.Background(), Query{ID: "bad", Answers: []string{"only"}}, selected("w1")); err == nil {
		t.Error("single-answer query must error")
	}
}

func TestExecuteDeadline(t *testing.T) {
	e := NewEngine(Options{Seed: 3})
	if err := e.Connect(Device{
		Participant: crowd.Participant{ID: "slow"},
		Network:     TwoG,
		Respond: func(Query) (string, time.Duration) {
			return "yes", 10 * time.Second // human takes far too long
		},
	}); err != nil {
		t.Fatal(err)
	}
	if err := e.Connect(Device{
		Participant: crowd.Participant{ID: "fast"},
		Network:     WiFi,
		Respond:     fixedResponder("yes"),
	}); err != nil {
		t.Fatal(err)
	}
	q := testQuery
	q.Deadline = 2 * time.Second
	exec, err := e.Execute(context.Background(), q, selected("slow", "fast"))
	if err != nil {
		t.Fatal(err)
	}
	if len(exec.Answers) != 1 || exec.Answers[0].Participant != "fast" {
		t.Errorf("in-deadline answers = %v", exec.Answers)
	}
	missed := 0
	for _, tm := range exec.Timings {
		if tm.Missed {
			missed++
			if tm.Participant != "slow" {
				t.Errorf("wrong worker missed: %+v", tm)
			}
		}
	}
	if missed != 1 {
		t.Errorf("missed = %d, want 1", missed)
	}
	if exec.Counts["yes"] != 1 {
		t.Errorf("reduce must exclude missed answers: %v", exec.Counts)
	}
}

func TestLatencyProfileShape(t *testing.T) {
	// Averages over many executions must reproduce the Figure 6
	// decomposition: 2G slowest on push and comm, trigger flat across
	// networks, end-to-end under a second even on 2G.
	// The draws are keyed by query: 200 distinct queries, not one
	// query 200 times.
	e := testEngine(t)
	var execs []*Execution
	for i := 0; i < 200; i++ {
		q := testQuery
		q.ID = fmt.Sprintf("q%d", i)
		exec, err := e.Execute(context.Background(), q, selected("w1", "w2", "w3"))
		if err != nil {
			t.Fatal(err)
		}
		execs = append(execs, exec)
	}
	avgs := AverageByNetwork(execs)
	if len(avgs) != 3 {
		t.Fatalf("AverageByNetwork = %v", avgs)
	}
	byNet := make(map[Network]StepAverages)
	for _, a := range avgs {
		byNet[a.Network] = a
	}
	within := func(got, want time.Duration, tolFrac float64) bool {
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return float64(diff) <= float64(want)*tolFrac
	}
	if !within(byNet[TwoG].Push, 467*time.Millisecond, 0.10) {
		t.Errorf("2G push avg = %v, want ≈ 467 ms", byNet[TwoG].Push)
	}
	if !within(byNet[ThreeG].Push, 169*time.Millisecond, 0.10) {
		t.Errorf("3G push avg = %v, want ≈ 169 ms", byNet[ThreeG].Push)
	}
	if !within(byNet[WiFi].Comm, 182*time.Millisecond, 0.10) {
		t.Errorf("WiFi comm avg = %v, want ≈ 182 ms", byNet[WiFi].Comm)
	}
	if byNet[TwoG].Push <= byNet[ThreeG].Push || byNet[TwoG].Comm <= byNet[WiFi].Comm {
		t.Error("2G must be the slowest network")
	}
	// Trigger time is network-independent: all within the 38-55 band.
	for n, a := range byNet {
		if a.Trigger < 38*time.Millisecond || a.Trigger > 55*time.Millisecond {
			t.Errorf("%v trigger avg = %v outside band", n, a.Trigger)
		}
		endToEnd := a.Trigger + a.Push + a.Comm
		if endToEnd >= time.Second {
			t.Errorf("%v end-to-end = %v, paper promises < 1 s", n, endToEnd)
		}
	}
}

func TestExecutionToTask(t *testing.T) {
	e := testEngine(t)
	exec, err := e.Execute(context.Background(), testQuery, selected("w1", "w3"))
	if err != nil {
		t.Fatal(err)
	}
	task := exec.Task(nil)
	if task.ID != "q1" || len(task.Labels) != 2 || len(task.Answers) != 2 {
		t.Errorf("Task = %+v", task)
	}
	// Feed it to the estimator end-to-end.
	est := crowd.NewEstimator(crowd.EstimatorOptions{})
	v, err := est.Process(task)
	if err != nil {
		t.Fatal(err)
	}
	if v.Best != "yes" && v.Best != "no" {
		t.Errorf("verdict = %+v", v)
	}
}

func TestNetworkString(t *testing.T) {
	if TwoG.String() != "2G" || ThreeG.String() != "3G" || WiFi.String() != "WiFi" {
		t.Error("network names wrong")
	}
	if Network(9).String() != "network(9)" {
		t.Error("unknown network name wrong")
	}
}

// TestExecuteDeadWorkerCannotHangRound: a device whose Respond blocks
// forever must not stall Execute. With a ResponseTimeout set, the
// round gives up on the dead worker, marks it Failed, and reduces the
// healthy workers' answers as usual.
func TestExecuteDeadWorkerCannotHangRound(t *testing.T) {
	e := NewEngine(Options{
		Seed:            3,
		ResponseTimeout: 20 * time.Millisecond,
	})
	hang := make(chan struct{}) // never closed: a hung device
	if err := e.Connect(Device{
		Participant: crowd.Participant{ID: "dead"},
		Network:     TwoG,
		Respond: func(Query) (string, time.Duration) {
			<-hang
			return "yes", 0
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"w1", "w2"} {
		if err := e.Connect(Device{
			Participant: crowd.Participant{ID: id},
			Network:     WiFi,
			Respond:     fixedResponder("yes"),
		}); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var exec *Execution
	var err error
	go func() {
		defer close(done)
		exec, err = e.Execute(context.Background(), testQuery, selected("dead", "w1", "w2"))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Execute hung behind the dead worker")
	}
	if err != nil {
		t.Fatal(err)
	}

	if len(exec.Timings) != 3 {
		t.Fatalf("Timings = %d entries, want 3 (the dead worker is reported, not dropped)", len(exec.Timings))
	}
	var deadTiming *StepTiming
	for i := range exec.Timings {
		if exec.Timings[i].Participant == "dead" {
			deadTiming = &exec.Timings[i]
		} else if exec.Timings[i].Failed {
			t.Errorf("healthy worker %s marked Failed", exec.Timings[i].Participant)
		}
	}
	if deadTiming == nil {
		t.Fatal("dead worker missing from Timings")
	}
	if !deadTiming.Failed {
		t.Error("dead worker not marked Failed")
	}
	// The reduce phase excludes the failure and keeps the answers.
	if len(exec.Answers) != 2 || exec.Counts["yes"] != 2 {
		t.Errorf("Answers = %v, Counts = %v: want the 2 healthy answers reduced", exec.Answers, exec.Counts)
	}
}

// TestRespondContextCancellation: cancelling the round releases a
// worker parked on a dead device without waiting out its timeout.
func TestRespondContextCancellation(t *testing.T) {
	e := NewEngine(Options{
		Seed:            3,
		ResponseTimeout: 10 * time.Second, // longer than the test allows
	})
	hang := make(chan struct{})
	if err := e.Connect(Device{
		Participant: crowd.Participant{ID: "dead"},
		Network:     TwoG,
		Respond: func(Query) (string, time.Duration) {
			<-hang
			return "yes", 0
		},
	}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.Execute(ctx, testQuery, selected("dead"))
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("Execute = nil error after cancellation")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Execute not released by cancellation")
	}
	close(hang)
}

// TestExecuteDrawsKeyed: a worker's latencies on a query are a pure
// function of (seed, query ID, worker ID, step) — the same on a second
// engine whatever order its devices connected in and however its map
// tasks were scheduled, and different for another query.
func TestExecuteDrawsKeyed(t *testing.T) {
	e := testEngine(t)
	run := func(e *Engine, id string) []StepTiming {
		q := testQuery
		q.ID = id
		exec, err := e.Execute(context.Background(), q, selected("w1", "w2", "w3"))
		if err != nil {
			t.Fatal(err)
		}
		return exec.Timings
	}
	want := run(e, "q1")
	reversed := NewEngine(Options{Seed: 1})
	for _, id := range []string{"w3", "w2", "w1"} {
		e.mu.Lock()
		d := e.devices[id]
		e.mu.Unlock()
		if err := reversed.Connect(d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if got := run(reversed, "q1"); !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: timings %v, want %v", i, got, want)
		}
	}
	if other := run(e, "q2"); reflect.DeepEqual(other, want) {
		t.Errorf("query q2 drew q1's timings %v", want)
	}
}

// TestExecuteRunsMapTasksInCaller: without a ResponseTimeout every map
// task is a call in Execute's own goroutine — a Respond sees the
// goroutine count from before the round — and the execution equals one
// on an engine whose devices are asked in goroutines of their own.
func TestExecuteRunsMapTasksInCaller(t *testing.T) {
	e := NewEngine(Options{Seed: 1})
	var seen []int
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := e.Connect(Device{
			Participant: crowd.Participant{ID: id},
			Network:     WiFi,
			Respond: func(Query) (string, time.Duration) {
				seen = append(seen, runtime.NumGoroutine())
				return "yes", time.Second
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	before := runtime.NumGoroutine()
	exec, err := e.Execute(context.Background(), testQuery, selected("w3", "w1", "w2"))
	if err != nil {
		t.Fatal(err)
	}
	// At most: an earlier test's released device may still be exiting.
	if len(seen) != 3 || slices.Max(seen) > before {
		t.Errorf("Respond saw %v goroutines, %d before the round: a map task ran outside the caller", seen, before)
	}

	timed := NewEngine(Options{Seed: 1, ResponseTimeout: time.Minute})
	for _, id := range []string{"w1", "w2", "w3"} {
		if err := timed.Connect(Device{Participant: crowd.Participant{ID: id}, Network: WiFi, Respond: func(Query) (string, time.Duration) { return "yes", time.Second }}); err != nil {
			t.Fatal(err)
		}
	}
	want, err := timed.Execute(context.Background(), testQuery, selected("w3", "w1", "w2"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exec, want) {
		t.Errorf("in the caller %+v, in goroutines %+v", exec, want)
	}
}

// TestExecuteHungWorkersShareOneTimeout: three hung devices and a
// 300 ms ResponseTimeout end the round after about one timeout, not
// three, with the three marked Failed and the healthy answer reduced.
func TestExecuteHungWorkersShareOneTimeout(t *testing.T) {
	const timeout = 300 * time.Millisecond
	e := NewEngine(Options{Seed: 3, ResponseTimeout: timeout})
	hang := make(chan struct{})
	defer close(hang)
	for _, id := range []string{"dead1", "dead2", "dead3"} {
		if err := e.Connect(Device{
			Participant: crowd.Participant{ID: id},
			Network:     TwoG,
			Respond: func(Query) (string, time.Duration) {
				<-hang
				return "yes", 0
			},
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Connect(Device{Participant: crowd.Participant{ID: "w1"}, Network: WiFi, Respond: fixedResponder("no")}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	exec, err := e.Execute(context.Background(), testQuery, selected("dead1", "dead2", "w1", "dead3"))
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took < timeout || took > 2*timeout {
		t.Errorf("the round took %v with three hung devices, want one %v timeout (well under %v)", took, timeout, 3*timeout)
	}
	failed := 0
	for _, tm := range exec.Timings {
		if tm.Failed {
			failed++
		}
	}
	if failed != 3 || len(exec.Answers) != 1 || exec.Counts["no"] != 1 {
		t.Errorf("%d failed, answers %v, counts %v: want the 3 hung devices failed and w1's answer reduced", failed, exec.Answers, exec.Counts)
	}
}
