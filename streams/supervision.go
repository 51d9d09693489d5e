package streams

import (
	"math"
	"sync"
	"time"
)

// Supervision of processes. The Streams backbone carries unreliable
// urban sensor feeds (Section 2 of the paper lists volume, veracity
// and velocity as the operational challenges), so a single failing
// processor must not tear down the whole data-flow graph. Each
// process carries a SupervisionPolicy deciding what happens when one
// of its processors returns an error:
//
//   - FailFast (the default) aborts the topology, the pre-supervision
//     behaviour;
//   - Restart re-runs the processor chain on the failing item after a
//     capped exponential backoff, up to RetryPolicy.MaxAttempts extra
//     attempts; what happens when the attempts are exhausted is decided
//     by OnExhausted;
//   - SkipItem routes the failing item to the topology's dead-letter
//     queue and continues with the next item.
//
// Queues survive a supervised writer being restarted: a writer counts
// as live for queue-close accounting until it exits terminally, so
// downstream readers never observe a premature end of stream while a
// producer is merely backing off.

// Strategy selects how a process reacts to a processor error.
type Strategy int

// Supervision strategies.
const (
	// FailFast aborts the whole topology on the first processor error.
	FailFast Strategy = iota
	// Restart retries the processor chain on the failing item with
	// backoff; see RetryPolicy and ExhaustAction.
	Restart
	// SkipItem dead-letters the failing item and continues.
	SkipItem
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case FailFast:
		return "fail-fast"
	case Restart:
		return "restart"
	case SkipItem:
		return "skip-item"
	}
	return "strategy(?)"
}

// ExhaustAction decides what a Restart policy does once its attempts
// are exhausted.
type ExhaustAction int

// Exhaustion actions.
const (
	// Escalate aborts the topology with the last error (default).
	//lint:allow unusedapi names the zero ExhaustAction, the default every policy falls back to
	Escalate ExhaustAction = iota
	// Isolate stops only the failing process: it is marked
	// HealthFailed, its item is dead-lettered, its output queue closes
	// once its co-writers finish, and its input is drained so upstream
	// producers are not blocked — the rest of the graph keeps running.
	Isolate
)

// RetryPolicy is a capped exponential backoff. It is deterministic
// (jitter-free) so supervised runs stay reproducible under test.
type RetryPolicy struct {
	// MaxAttempts is the number of retries after the initial failure.
	// Default 3.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry. Default 10ms.
	BaseDelay time.Duration
	// MaxDelay caps the backoff. Default 1s.
	MaxDelay time.Duration
	// Multiplier grows the delay between consecutive retries.
	// Default 2.
	Multiplier float64
}

func (r RetryPolicy) normalized() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 10 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = time.Second
	}
	if r.Multiplier < 1 {
		r.Multiplier = 2
	}
	return r
}

// Delay returns the backoff before the attempt-th retry (1-based):
// BaseDelay·Multiplier^(attempt-1), capped at MaxDelay.
func (r RetryPolicy) Delay(attempt int) time.Duration {
	r = r.normalized()
	if attempt < 1 {
		attempt = 1
	}
	d := float64(r.BaseDelay) * math.Pow(r.Multiplier, float64(attempt-1))
	if d > float64(r.MaxDelay) {
		return r.MaxDelay
	}
	return time.Duration(d)
}

// SupervisionPolicy is the per-process fault-handling configuration.
// The zero value is FailFast.
type SupervisionPolicy struct {
	Strategy Strategy
	// Retry configures the Restart strategy's backoff.
	//lint:allow unusedapi process supervision of the Streams backbone; Topology.Health reports its outcome
	Retry RetryPolicy
	// OnExhausted decides what Restart does after Retry.MaxAttempts
	// failed retries of the same item.
	//lint:allow unusedapi process supervision of the Streams backbone; Topology.Health reports its outcome
	OnExhausted ExhaustAction
}

// HealthState is the lifecycle state of a process within a run.
type HealthState int

// Process health states.
const (
	// HealthIdle: the topology has not been run yet.
	HealthIdle HealthState = iota
	// HealthRunning: the process is pumping items.
	HealthRunning
	// HealthRetrying: the process hit a processor error and is backing
	// off before a restart attempt.
	HealthRetrying
	// HealthDone: the process exited cleanly (input exhausted).
	HealthDone
	// HealthFailed: the process exited with a terminal error (either
	// aborting the topology or isolated by its policy).
	HealthFailed
)

// String returns the state name.
func (h HealthState) String() string {
	switch h {
	case HealthIdle:
		return "idle"
	case HealthRunning:
		return "running"
	case HealthRetrying:
		return "retrying"
	case HealthDone:
		return "done"
	case HealthFailed:
		return "failed"
	}
	return "health(?)"
}

// ProcessHealth is the supervision view of one process.
type ProcessHealth struct {
	State HealthState
	// Restarts counts retry attempts performed across all items.
	Restarts int
	// Skipped counts items routed to the dead-letter queue.
	Skipped int
	// DeadLettersDropped counts this process's dead letters that were
	// evicted from the bounded retention buffer to make room for newer
	// ones (the letters were still counted in Skipped).
	DeadLettersDropped int
	// LastError is the most recent processor error ("" if none).
	LastError string
}

// DeadLetter is one item a supervised process gave up on.
type DeadLetter struct {
	// Process is the name of the process that dead-lettered the item.
	Process string
	// Item is the offending item.
	//lint:allow unusedapi the supervisor writes the condemned payload for whoever inspects a fault; /healthz shows the error, not the item
	Item Item
	// Err is the processor error that condemned it.
	Err error
	// Attempts is how many times the processor chain was tried on it.
	Attempts int
}

// maxDeadLetters bounds the retained dead letters per run. The buffer
// is a ring: under sustained failure the newest maxDeadLetters items
// are kept, the oldest are evicted, and every eviction is charged to
// the evicting process's ProcessHealth.DeadLettersDropped — so memory
// stays bounded while Health() still shows that (and where) evidence
// was lost.
const maxDeadLetters = 1024

// supervisor tracks health and dead letters for one Topology.Run.
type supervisor struct {
	mu     sync.Mutex
	health map[string]*ProcessHealth
	// dead is a ring buffer of the most recent dead letters: once full,
	// deadStart marks the oldest entry, which the next letter evicts.
	// Run-scoped diagnostics surfaced via DeadLetters(), not part of
	// the health snapshot.
	dead      []DeadLetter //state:transient run-scoped dead-letter ring
	deadStart int          //state:transient ring cursor for dead
}

func newSupervisor(processes []*Process) *supervisor {
	s := &supervisor{health: make(map[string]*ProcessHealth, len(processes))}
	for _, p := range processes {
		s.health[p.Name] = &ProcessHealth{State: HealthRunning}
	}
	return s
}

func (s *supervisor) state(name string, st HealthState, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[name]
	if h == nil {
		h = &ProcessHealth{}
		s.health[name] = h
	}
	h.State = st
	if err != nil {
		h.LastError = err.Error()
	}
}

func (s *supervisor) retrying(name string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[name]
	if h == nil {
		h = &ProcessHealth{}
		s.health[name] = h
	}
	h.State = HealthRetrying
	h.Restarts++
	h.LastError = err.Error()
}

func (s *supervisor) deadLetter(name string, it Item, err error, attempts int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[name]
	if h == nil {
		h = &ProcessHealth{}
		s.health[name] = h
	}
	h.Skipped++
	h.LastError = err.Error()
	// Snapshot the item: the dead letter must stay readable as-is
	// even if an upstream stage (a chaos duplicator, a retrying
	// processor) keeps mutating the original map.
	dl := DeadLetter{Process: name, Item: it.Clone(), Err: err, Attempts: attempts}
	if len(s.dead) < maxDeadLetters {
		s.dead = append(s.dead, dl)
		return
	}
	evicted := &s.dead[s.deadStart]
	if eh := s.health[evicted.Process]; eh != nil {
		eh.DeadLettersDropped++
	} else {
		s.health[evicted.Process] = &ProcessHealth{DeadLettersDropped: 1}
	}
	s.dead[s.deadStart] = dl
	s.deadStart = (s.deadStart + 1) % maxDeadLetters
}

func (s *supervisor) snapshot() map[string]ProcessHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]ProcessHealth, len(s.health))
	for name, h := range s.health {
		out[name] = *h
	}
	return out
}

func (s *supervisor) deadLetters() []DeadLetter {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DeadLetter, 0, len(s.dead))
	out = append(out, s.dead[s.deadStart:]...)
	out = append(out, s.dead[:s.deadStart]...)
	return out
}
