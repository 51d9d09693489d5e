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
// clock, so regenerating the figure takes microseconds, and a map task
// runs in the caller: a round of five workers is five calls, no
// goroutine. Only an engine with a ResponseTimeout, which guards
// against devices that never answer, asks each device in a goroutine of
// its own; the hung devices of one round then share one deadline.
package qee

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
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
	// ResponseTimeout bounds the wall-clock time a round waits for its
	// devices' Respond calls before the engine marks the workers that
	// have not answered Failed; all of a round's devices share the one
	// deadline. 0 (the default) calls each Respond in the caller and
	// waits forever — a dead worker then hangs the round. An abandoned
	// Respond goroutine is orphaned, not killed; its eventual answer is
	// discarded.
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
// an FNV-1a hash of the key. A shared generator would make a worker's
// latencies depend on the order the round asks its workers in.
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

// reply is one worker's response to a round: its label and think time,
// or failed when it gave none within the ResponseTimeout.
type reply struct {
	label  string
	think  time.Duration
	failed bool
}

// respondAll obtains every worker's answer into replies, in workers'
// order. Without a ResponseTimeout each Respond is a plain call in the
// caller, one after another. With one, every Respond runs in its own
// goroutine and all of them share one deadline: a round with k hung
// devices ends after one timeout, not k. A worker with no answer by the
// deadline (or by the end of ctx) is marked failed; its goroutine is
// abandoned and its late answer discarded.
func (e *Engine) respondAll(ctx context.Context, workers []Device, q Query, replies []reply) {
	if e.timeout <= 0 {
		for i, w := range workers {
			replies[i].label, replies[i].think = w.Respond(q)
		}
		return
	}
	type answer struct {
		i     int
		label string
		think time.Duration
	}
	ch := make(chan answer, len(workers)) // buffered: an abandoned goroutine never blocks
	for i, w := range workers {
		replies[i].failed = true
		go func() {
			l, th := w.Respond(q)
			ch <- answer{i, l, th}
		}()
	}
	timer := time.NewTimer(e.timeout)
	defer timer.Stop()
	for range workers {
		select {
		case a := <-ch:
			replies[a.i] = reply{label: a.label, think: a.think}
		case <-ctx.Done():
			return
		case <-timer.C:
			return
		}
	}
}

// Execute runs the query against the selected participants: the map
// phase runs one task per worker (the paper uses MapReduce "to maximize
// parallelism"), and the reduce phase merges the in-deadline answers
// into label counts. Map tasks are timed on the virtual clock, so
// without a ResponseTimeout they run in the caller, one after another:
// a simulated device answers at once, and the latencies it reports are
// keyed draws, the same in any order. With a ResponseTimeout every
// device answers in a goroutine of its own and the hung ones share one
// deadline. Workers that are not connected are skipped; workers whose
// end-to-end time exceeds the deadline are marked Missed and excluded
// from the reduce output, and workers whose device never answers
// within the engine's ResponseTimeout are marked Failed and likewise
// excluded — a dead participant cannot hang the round.
func (e *Engine) Execute(ctx context.Context, q Query, selected []crowd.Participant) (*Execution, error) {
	if len(q.Answers) < 2 {
		return nil, fmt.Errorf("qee: query %q needs at least two possible answers", q.ID)
	}
	workers := make([]Device, 0, len(selected))
	e.mu.Lock()
	for _, p := range selected {
		if d, ok := e.devices[p.ID]; ok {
			workers = append(workers, d) //lint:allow hotalloc presized to len(selected)
		}
	}
	e.mu.Unlock()
	if len(workers) == 0 {
		return nil, fmt.Errorf("qee: no connected workers for query %q", q.ID)
	}

	replies := make([]reply, len(workers))
	e.respondAll(ctx, workers, q, replies)
	exec := &Execution{
		Query:   q,
		Answers: make([]crowd.Answer, 0, len(workers)),
		Counts:  make(map[string]int, len(q.Answers)),
		Timings: make([]StepTiming, len(workers)),
	}
	for i, w := range workers { // the map phase's timings
		t := &exec.Timings[i]
		id, lo, hi := w.Participant.ID, e.profile.TriggerMin, e.profile.TriggerMax
		t.Participant, t.Network = id, w.Network
		t.Trigger = lo + time.Duration(e.uniform(q.ID, id, 0)*float64(hi-lo))
		t.Push = e.sample(e.profile.Push[w.Network], q.ID, id, 1)
		if t.Failed = replies[i].failed; t.Failed {
			continue
		}
		t.Think = replies[i].think
		t.Comm = e.sample(e.profile.Comm[w.Network], q.ID, id, 3)
		t.Missed = q.Deadline > 0 && t.Total() > q.Deadline
	}
	for i := range exec.Timings { // the reduce phase
		if t := &exec.Timings[i]; !t.Missed && !t.Failed {
			label := replies[i].label
			exec.Answers = append(exec.Answers, crowd.Answer{Participant: t.Participant, Label: label}) //lint:allow hotalloc presized to len(workers); a two-string value
			exec.Counts[label]++
		}
	}
	slices.SortFunc(exec.Timings, func(a, b StepTiming) int { return strings.Compare(a.Participant, b.Participant) })
	slices.SortFunc(exec.Answers, func(a, b crowd.Answer) int { return strings.Compare(a.Participant, b.Participant) })
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
