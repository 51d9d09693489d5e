package crowd

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/insight-dublin/insight/geo"
)

// Participant is a registered crowdsourcing volunteer: "each
// participant i ∈ U registers with the query execution engine using a
// mobile device" (Section 5.3).
type Participant struct {
	ID  string
	Pos geo.Point
	// Online reports whether the participant is currently reachable
	// (connected to the push notification service).
	Online bool
	// ComputeTime is the expected time the participant needs to
	// process a task, estimated "from the past executed tasks".
	ComputeTime time.Duration
}

// Roster is the registry of participants. It is safe for concurrent
// use: the query execution engine reads it while location updates
// stream in.
type Roster struct {
	mu           sync.RWMutex
	participants map[string]Participant
	// online is the ID-sorted view Online hands out copies of; nil
	// after Register, SetLocation or SetOnline until the next Online
	// rebuilds it. The roster changes rarely and is read once per
	// crowdsourcing round.
	online []Participant
}

// NewRoster returns an empty roster.
func NewRoster() *Roster {
	return &Roster{participants: make(map[string]Participant)}
}

// Register adds or replaces a participant.
func (r *Roster) Register(p Participant) error {
	if p.ID == "" {
		return fmt.Errorf("crowd: participant with empty ID")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.participants[p.ID] = p
	r.online = nil
	return nil
}

// SetLocation updates a participant's position.
func (r *Roster) SetLocation(id string, pos geo.Point) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.participants[id]
	if !ok {
		return fmt.Errorf("crowd: unknown participant %q", id)
	}
	p.Pos = pos
	r.participants[id] = p
	r.online = nil
	return nil
}

// SetOnline updates a participant's connectivity.
func (r *Roster) SetOnline(id string, online bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.participants[id]
	if !ok {
		return fmt.Errorf("crowd: unknown participant %q", id)
	}
	p.Online = online
	r.participants[id] = p
	r.online = nil
	return nil
}

// Get returns a participant by ID.
func (r *Roster) Get(id string) (Participant, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	p, ok := r.participants[id]
	return p, ok
}

// Online returns the currently reachable participants, sorted by ID
// for determinism. The slice is the caller's: a Selection may reorder
// or truncate it.
func (r *Roster) Online() []Participant {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.online == nil {
		r.online = make([]Participant, 0, len(r.participants))
		for _, p := range r.participants {
			if p.Online {
				r.online = append(r.online, p) //lint:allow hotalloc presized; runs only after a mutator dropped the view
			}
		}
		slices.SortFunc(r.online, func(a, b Participant) int { return strings.Compare(a.ID, b.ID) })
	}
	return slices.Clone(r.online)
}

// Len returns the number of registered participants.
func (r *Roster) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.participants)
}

// Selection is a worker-selection policy: given the online candidates
// and the task location it returns the participants to query. The
// paper selects "one or more humans ... close to the sensors that
// disagree", possibly filtered by reliability or deadline
// feasibility.
type Selection func(candidates []Participant, taskPos geo.Point) []Participant

// SelectAll queries every online participant (the policy of the
// estimation experiment in Section 7.2: "All participants were
// queried about each sensor disagreement").
func SelectAll(candidates []Participant, _ geo.Point) []Participant {
	return candidates
}

// SelectNearest returns a policy that picks the k participants closest
// to the disagreement location, nearest first and ties by ID,
// optionally restricted to maxMeters (0 = no distance bound). With
// k > 0 it keeps a sorted shortlist of k while it scans instead of
// sorting every candidate.
func SelectNearest(k int, maxMeters float64) Selection {
	return func(candidates []Participant, taskPos geo.Point) []Participant {
		type scored struct {
			d float64
			i int // index into candidates
		}
		order := func(a, b scored) int {
			if c := cmp.Compare(a.d, b.d); c != 0 {
				return c
			}
			return strings.Compare(candidates[a.i].ID, candidates[b.i].ID)
		}
		limit := len(candidates)
		if k > 0 && k < limit {
			limit = k
		}
		best := make([]scored, 0, limit)
		for i := range candidates {
			s := scored{d: geo.Distance(candidates[i].Pos, taskPos), i: i} //lint:allow hotalloc a two-word value on the stack
			if maxMeters > 0 && s.d > maxMeters {
				continue
			}
			if k <= 0 {
				best = append(best, s) //lint:allow hotalloc presized to len(candidates)
				continue
			}
			if len(best) == limit {
				if order(s, best[limit-1]) >= 0 {
					continue
				}
				best = best[:limit-1]
			}
			at, _ := slices.BinarySearchFunc(best, s, order)
			best = append(best, s) //lint:allow hotalloc len < limit = cap: cannot grow
			copy(best[at+1:], best[at:])
			best[at] = s
		}
		if k <= 0 {
			slices.SortFunc(best, order)
		}
		out := make([]Participant, len(best))
		for i, s := range best {
			out[i] = candidates[s.i]
		}
		return out
	}
}

// SelectMostReliable returns a policy that picks the k participants
// with the lowest estimated error probability according to the online
// EM estimator.
func SelectMostReliable(k int, est *Estimator) Selection {
	return func(candidates []Participant, _ geo.Point) []Participant {
		out := append([]Participant(nil), candidates...)
		sort.Slice(out, func(i, j int) bool {
			pi, pj := est.ErrorProb(out[i].ID), est.ErrorProb(out[j].ID)
			if pi != pj { //lint:allow floateq exact compare inside a comparator: any consistent order is correct, ties fall through to ID
				return pi < pj
			}
			return out[i].ID < out[j].ID
		})
		if k > 0 && len(out) > k {
			out = out[:k]
		}
		return out
	}
}

// DeadlineFeasible wraps a policy with the real-time admission test of
// Section 5.3: a participant is queried only if
// comm_iq + comp_iq < deadline_q, with the communication time
// estimated by the supplied function (typically from the query
// execution engine's per-network history).
func DeadlineFeasible(inner Selection, commEstimate func(Participant) time.Duration, deadline time.Duration) Selection {
	return func(candidates []Participant, taskPos geo.Point) []Participant {
		feasible := make([]Participant, 0, len(candidates))
		for _, p := range candidates {
			if commEstimate(p)+p.ComputeTime < deadline {
				feasible = append(feasible, p)
			}
		}
		return inner(feasible, taskPos)
	}
}
