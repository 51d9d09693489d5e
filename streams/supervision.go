package streams

import "sync"

// Supervision of processes. The Streams backbone carries unreliable
// urban sensor feeds (Section 2 of the paper lists volume, veracity
// and velocity as the operational challenges), so a poisoned item must
// not tear down the whole data-flow graph. Each process carries a
// Strategy deciding what happens when one of its processors returns an
// error:
//
//   - FailFast (the default) aborts the topology; a durable pipeline's
//     write-ahead log and checkpoints recover the run;
//   - SkipItem routes the failing item to the topology's dead-letter
//     queue and continues with the next item.
//
// There is no in-process retry: every processor on the pipeline is
// deterministic, so the same item fails the same way again. Recovery
// is recomputation from logged input, not a retried operator.

// Strategy selects how a process reacts to a processor error. The zero
// value is FailFast.
type Strategy int

// Supervision strategies.
const (
	// FailFast aborts the whole topology on the first processor error.
	FailFast Strategy = iota
	// SkipItem dead-letters the failing item and continues.
	SkipItem
)

// String returns the strategy name.
func (s Strategy) String() string {
	switch s {
	case FailFast:
		return "fail-fast"
	case SkipItem:
		return "skip-item"
	}
	return "strategy(?)"
}

// HealthState is the lifecycle state of a process within a run.
type HealthState int

// Process health states.
const (
	// HealthIdle: the topology has not been run yet.
	HealthIdle HealthState = iota
	// HealthRunning: the process is pumping items.
	HealthRunning
	// HealthDone: the process exited cleanly (input exhausted).
	HealthDone
	// HealthFailed: the process exited with a terminal error, which
	// aborted the topology.
	HealthFailed
)

// String returns the state name.
func (h HealthState) String() string {
	switch h {
	case HealthIdle:
		return "idle"
	case HealthRunning:
		return "running"
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
	// Skipped counts items routed to the dead-letter queue.
	Skipped int
	// DeadLettersDropped counts this process's dead letters that were
	// evicted from the bounded retention buffer to make room for newer
	// ones (the letters were still counted in Skipped).
	DeadLettersDropped int
	// LastError is the most recent processor error ("" if none).
	LastError string
}

// DeadLetter records one item a supervised process gave up on. It
// keeps no payload: the item belonged to the processor that failed on
// it, which has already given any batch buffer back to the pool.
type DeadLetter struct {
	// Process is the name of the process that dead-lettered the item.
	Process string
	// Err is the processor error that condemned it.
	Err error
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

func (s *supervisor) deadLetter(name string, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := s.health[name]
	if h == nil {
		h = &ProcessHealth{}
		s.health[name] = h
	}
	h.Skipped++
	h.LastError = err.Error()
	dl := DeadLetter{Process: name, Err: err}
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
