// Package qee implements the crowdsourcing query execution engine of
// Section 5.3: it communicates queries to participants' mobile devices
// and aggregates their answers with a MapReduce-style decomposition —
// each selected worker processes a map task (answer one question) and
// the intermediate results are merged by a reduce step.
//
// The real deployment pushes tasks through Google Cloud Messaging to
// Android phones on 2G/3G/WiFi links. Offline, this package simulates
// the communication fabric with latency profiles calibrated to the
// measurements of the paper's Figure 6 (trigger 38–55 ms regardless of
// network; push notification 467/169/184 ms and task communication
// 423/171/182 ms on 2G/3G/WiFi). Executions are timed on a virtual
// clock, so regenerating the figure takes microseconds.
package qee

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/geo"
)

// Network is the connection type of a participant's device.
type Network int

// Connection types measured in the paper.
const (
	TwoG Network = iota
	ThreeG
	WiFi
)

// String returns the conventional network name.
func (n Network) String() string {
	switch n {
	case TwoG:
		return "2G"
	case ThreeG:
		return "3G"
	case WiFi:
		return "WiFi"
	}
	return fmt.Sprintf("network(%d)", int(n))
}

// Networks lists all supported connection types.
var Networks = []Network{TwoG, ThreeG, WiFi}

// LatencyProfile holds the mean latencies of each step of a query
// execution per network type, plus a relative jitter applied when
// sampling.
type LatencyProfile struct {
	// TriggerMin/TriggerMax bound the task-trigger latency (worker
	// selection + task assignment inside the engine; no device
	// communication, hence network-independent).
	TriggerMin, TriggerMax time.Duration
	// Push is the mean push-notification latency per network: the
	// engine sends the notification to the cloud messaging server,
	// which forwards it to the device.
	Push map[Network]time.Duration
	// Comm is the mean task-communication latency per network: the
	// device retrieves the task and sends the answer back.
	Comm map[Network]time.Duration
	// Jitter is the relative standard deviation of the sampled push
	// and communication latencies.
	Jitter float64
}

// PaperProfile is calibrated to the means reported in Figure 6.
func PaperProfile() LatencyProfile {
	return LatencyProfile{
		TriggerMin: 38 * time.Millisecond,
		TriggerMax: 55 * time.Millisecond,
		Push: map[Network]time.Duration{
			TwoG:   467 * time.Millisecond,
			ThreeG: 169 * time.Millisecond,
			WiFi:   184 * time.Millisecond,
		},
		Comm: map[Network]time.Duration{
			TwoG:   423 * time.Millisecond,
			ThreeG: 171 * time.Millisecond,
			WiFi:   182 * time.Millisecond,
		},
		Jitter: 0.15,
	}
}

// Query is a crowdsourcing question in the paper's form:
// query_q = {Question_q, [answer_1, ..., answer_n]}.
type Query struct {
	ID string
	// Question is the text a participant is asked; the report's crowd
	// round and cmd/e2ebench's crowd probe write it, and the simulated
	// participants answer from their position, not from the text.
	//lint:allow unusedapi written by the report's crowd round and cmd/e2ebench; simulated participants do not read it
	Question string
	Answers  []string
	// Pos is the disagreement location the query is about.
	Pos geo.Point
	// Deadline is the real-time response requirement deadline_q;
	// zero means no deadline.
	//lint:allow unusedapi deadline_q of Section 5.3: Execute marks answers later than it Missed
	Deadline time.Duration
}

// Device is a participant's simulated mobile client: its network type
// and its answering behaviour.
type Device struct {
	Participant crowd.Participant
	Network     Network
	// Respond produces the participant's answer to a query and the
	// human think time (opening the task and choosing an answer).
	// The paper excludes think time from its latency figure; the
	// engine reports it separately.
	Respond func(q Query) (label string, think time.Duration)
}

// StepTiming is the latency decomposition of one worker's map task,
// matching Figure 6's three measured steps.
type StepTiming struct {
	Participant string
	Network     Network
	Trigger     time.Duration // select worker + assign task
	Push        time.Duration // push notification via the cloud messaging hop
	Comm        time.Duration // task retrieval + answer upload
	Think       time.Duration // human response time (not part of Figure 6)
	// Missed reports that the worker's answer arrived after the
	// query deadline and was excluded from the reduce phase.
	Missed bool
	// Failed reports that the worker produced no answer within the
	// engine's ResponseTimeout (a dead or hung device); it is excluded
	// from the reduce phase.
	Failed bool
}

// Total returns the end-to-end latency of the worker's map task.
func (s StepTiming) Total() time.Duration { return s.Trigger + s.Push + s.Comm + s.Think }

// Execution is the outcome of one query: the answers collected by the
// map phase, the label counts produced by the reduce phase, and the
// per-worker timing decomposition.
type Execution struct {
	Query   Query
	Answers []crowd.Answer
	// Counts is the reduce output: answers per label.
	Counts map[string]int
	// Timings has one entry per queried worker, including those that
	// missed the deadline.
	Timings []StepTiming
}

// Task converts the execution into a crowd.Task for the EM estimator,
// using the given prior (nil = uniform).
func (e *Execution) Task(prior []float64) crowd.Task {
	return crowd.Task{
		ID:      e.Query.ID,
		Labels:  e.Query.Answers,
		Prior:   prior,
		Answers: e.Answers,
	}
}

// Options configures the engine.
type Options struct {
	// Seed drives latency sampling: each worker's trigger, push and
	// communication latency on a query is a pure function of (Seed,
	// query ID, participant ID, step).
	Seed int64
	// ResponseTimeout bounds the wall-clock time one device's Respond
	// call may take before the engine marks the worker Failed. 0 (the
	// default) waits forever — a dead worker then hangs the round. The
	// abandoned Respond goroutine is orphaned, not killed; its eventual
	// answer is discarded.
	ResponseTimeout time.Duration
}

// Engine executes crowdsourcing queries against registered devices.
// It is safe for concurrent use.
type Engine struct {
	mu      sync.Mutex // guards devices
	devices map[string]Device
	profile LatencyProfile
	seed    uint64
	timeout time.Duration
}

// NewEngine builds a query execution engine timed by PaperProfile.
func NewEngine(opts Options) *Engine {
	return &Engine{
		devices: make(map[string]Device),
		profile: PaperProfile(),
		seed:    uint64(opts.Seed),
		timeout: opts.ResponseTimeout,
	}
}

// Connect registers a device, the analogue of the participant
// connecting to the cloud messaging service and identifying as a map
// worker.
func (e *Engine) Connect(d Device) error {
	if d.Participant.ID == "" {
		return fmt.Errorf("qee: device with empty participant ID")
	}
	if d.Respond == nil {
		return fmt.Errorf("qee: device %q has no Respond function", d.Participant.ID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.devices[d.Participant.ID] = d
	return nil
}

// uniform returns a draw in [0, 1) that is a pure function of the
// engine seed, the query, the worker and the draw (0 the trigger, 1–2
// the push, 3–4 the communication latency): SplitMix64's finaliser over
// an FNV-1a hash of the key. Workers sample in their own goroutines, so
// a shared generator would let the scheduler pick who gets which draw.
func (e *Engine) uniform(query, worker string, draw uint64) float64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, part := range [2]string{query, worker} {
		h = (h ^ uint64(len(part))) * prime // length-prefixed: ("ab","c") ≠ ("a","bc")
		for i := 0; i < len(part); i++ {
			h = (h ^ uint64(part[i])) * prime
		}
	}
	z := (h^draw)*prime + e.seed*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return float64((z^z>>31)>>11) / (1 << 53)
}

// sample draws a jittered latency around the mean (Box–Muller over
// draws draw and draw+1).
func (e *Engine) sample(mean time.Duration, query, worker string, draw uint64) time.Duration {
	n := math.Sqrt(-2*math.Log(1-e.uniform(query, worker, draw))) * math.Cos(2*math.Pi*e.uniform(query, worker, draw+1))
	return time.Duration(float64(mean) * max(1+n*e.profile.Jitter, 0.2))
}

// respond obtains one worker's answer, bounded by the engine's
// ResponseTimeout. It reports failed = true when the timeout fired (or
// the context ended): a dead device cannot hang the round. A Respond
// goroutine that outlives its timeout is abandoned; a late answer is
// discarded.
func (e *Engine) respond(ctx context.Context, w Device, q Query) (label string, think time.Duration, failed bool) {
	if e.timeout <= 0 {
		label, think = w.Respond(q)
		return label, think, false
	}
	type answer struct {
		label string
		think time.Duration
	}
	ch := make(chan answer, 1)
	go func() {
		l, th := w.Respond(q)
		ch <- answer{l, th}
	}()
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	select {
	case a := <-ch:
		return a.label, a.think, false
	case <-ctx.Done():
	case <-timer.C:
	}
	return "", 0, true
}

// Execute runs the query against the selected participants: the map
// phase dispatches one task per worker (concurrently, as the paper
// uses MapReduce "to maximize parallelism"), and the reduce phase
// merges the in-deadline answers into label counts. Workers that are
// not connected are skipped; workers whose end-to-end time exceeds the
// deadline are marked Missed and excluded from the reduce output, and
// workers whose device never answers within the engine's
// ResponseTimeout are marked Failed and likewise excluded — a dead
// participant cannot hang the round.
func (e *Engine) Execute(ctx context.Context, q Query, selected []crowd.Participant) (*Execution, error) {
	if len(q.Answers) < 2 {
		return nil, fmt.Errorf("qee: query %q needs at least two possible answers", q.ID)
	}
	var workers []Device
	e.mu.Lock()
	for _, p := range selected {
		if d, ok := e.devices[p.ID]; ok {
			workers = append(workers, d)
		}
	}
	e.mu.Unlock()
	if len(workers) == 0 {
		return nil, fmt.Errorf("qee: no connected workers for query %q", q.ID)
	}

	type mapResult struct {
		answer crowd.Answer
		timing StepTiming
	}
	results := make(chan mapResult, len(workers))
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w Device) {
			defer wg.Done()
			t := StepTiming{Participant: w.Participant.ID, Network: w.Network}
			id, lo, hi := w.Participant.ID, e.profile.TriggerMin, e.profile.TriggerMax
			t.Trigger = lo + time.Duration(e.uniform(q.ID, id, 0)*float64(hi-lo))
			t.Push = e.sample(e.profile.Push[w.Network], q.ID, id, 1)
			label, think, failed := e.respond(ctx, w, q)
			if failed {
				t.Failed = true
				results <- mapResult{timing: t}
				return
			}
			t.Think = think
			t.Comm = e.sample(e.profile.Comm[w.Network], q.ID, id, 3)
			if q.Deadline > 0 && t.Total() > q.Deadline {
				t.Missed = true
			}
			results <- mapResult{
				answer: crowd.Answer{Participant: w.Participant.ID, Label: label},
				timing: t,
			}
		}(w)
	}
	wg.Wait()
	close(results)

	exec := &Execution{Query: q, Counts: make(map[string]int)}
	for r := range results {
		exec.Timings = append(exec.Timings, r.timing)
		if r.timing.Missed || r.timing.Failed {
			continue
		}
		exec.Answers = append(exec.Answers, r.answer)
		exec.Counts[r.answer.Label]++ // reduce step
	}
	sort.Slice(exec.Timings, func(i, j int) bool {
		return exec.Timings[i].Participant < exec.Timings[j].Participant
	})
	sort.Slice(exec.Answers, func(i, j int) bool {
		return exec.Answers[i].Participant < exec.Answers[j].Participant
	})
	if ctx.Err() != nil {
		return exec, ctx.Err()
	}
	return exec, nil
}

// StepAverages aggregates timing decompositions per network, the
// aggregation behind Figure 6.
type StepAverages struct {
	Network Network
	Count   int
	Trigger time.Duration
	Push    time.Duration
	Comm    time.Duration
}

// AverageByNetwork averages the step timings of the executions per
// network type.
func AverageByNetwork(execs []*Execution) []StepAverages {
	sums := make(map[Network]*StepAverages)
	for _, ex := range execs {
		for _, t := range ex.Timings {
			s := sums[t.Network]
			if s == nil {
				s = &StepAverages{Network: t.Network}
				sums[t.Network] = s
			}
			s.Count++
			s.Trigger += t.Trigger
			s.Push += t.Push
			s.Comm += t.Comm
		}
	}
	var out []StepAverages
	for _, n := range Networks {
		if s, ok := sums[n]; ok {
			out = append(out, StepAverages{
				Network: n,
				Count:   s.Count,
				Trigger: s.Trigger / time.Duration(s.Count),
				Push:    s.Push / time.Duration(s.Count),
				Comm:    s.Comm / time.Duration(s.Count),
			})
		}
	}
	return out
}
