// Package rtec is a native Go implementation of the Event Calculus for
// Run-Time reasoning (RTEC) used as the complex event processing
// component in Artikis et al., "Heterogeneous Stream Processing and
// Crowdsourcing for Urban Traffic Management" (EDBT 2014).
//
// RTEC represents the occurrence of an event E at time T with
// happensAt(E, T), the effects of events on fluents with
// initiatedAt(F=V, T) and terminatedAt(F=V, T), and the state of
// fluents with holdsAt(F=V, T) and holdsFor(F=V, I), where I is a list
// of maximal intervals (Table 1 of the paper). Time is linear and
// discrete. Simple fluents obey the law of inertia: once initiated
// they hold until terminated. Statically determined fluents are
// defined by interval manipulation constructs (union_all,
// intersect_all, relative_complement_all) over other fluents.
//
// Recognition is windowed: at each query time Q only the simple
// derived events (SDEs) inside the working memory (Q-WM, Q] are
// considered; everything older is discarded, so the cost of
// recognition depends on the window size and not on the length of the
// history. Because the window is usually larger than the step between
// query times, SDEs that arrive late — after the query time they
// occurred before — are still incorporated at the next query
// (Figure 2 of the paper); everything strictly inside the window is
// recomputed at each query time.
//
// The original RTEC is a Prolog program; this package keeps its
// semantics but exposes them through Go values: events are typed
// records with attribute maps, and CE definitions are Go functions
// that derive events or fluent transitions from a window Context.
// Definitions must form an acyclic dependency graph; the engine
// stratifies them and evaluates bottom-up.
package rtec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/insight-dublin/insight/interval"
)

// Time is a discrete time point (an alias of interval.Time).
type Time = interval.Time

// Sentinel time points (re-exported from the interval package).
const (
	MinTime = interval.MinTime
	MaxTime = interval.MaxTime
)

// Event is an event instance: happensAt(Type(attributes...), Time).
// Key names the principal entity the event is about (a bus ID, a
// SCATS sensor ID, an intersection ID); the engine indexes events by
// (Type, Key) so rules can join efficiently. Additional attributes
// live in Attrs.
// An Event is either map-backed (Attrs holds the attributes) or a
// columnar view (blk/row point into an engine-owned Block and the
// accessors read the columns). The two representations are
// behaviourally identical through the accessor methods; code must not
// read Attrs directly on events it did not build itself.
type Event struct {
	// Type is the bucket key: snapshots carry it once per bucket as the
	// Type of TypeSnapshot.Rows, and restored events read it back from
	// their block.
	//state:derived carried per bucket as TypeSnapshot.Rows.Type
	Type  string
	Time  Time
	Key   string
	Attrs map[string]any

	blk *Block
	row int32
}

// NewEvent builds an event. The attrs map is used as-is (not copied).
func NewEvent(typ string, t Time, key string, attrs map[string]any) Event {
	return Event{Type: typ, Time: t, Key: key, Attrs: attrs}
}

// Get returns a raw attribute and whether it was present.
func (e Event) Get(name string) (any, bool) {
	if e.blk != nil {
		return e.blk.getAt(name, int(e.row))
	}
	v, ok := e.Attrs[name]
	return v, ok
}

// Float returns a float64 attribute. Missing or differently-typed
// attributes yield (0, false). Integer attributes are converted.
func (e Event) Float(name string) (float64, bool) {
	if e.blk != nil {
		return e.blk.floatAt(name, int(e.row))
	}
	switch v := e.Attrs[name].(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// Int returns an int64 attribute. Missing or differently-typed
// attributes yield (0, false). Float attributes are truncated.
func (e Event) Int(name string) (int64, bool) {
	if e.blk != nil {
		return e.blk.intAt(name, int(e.row))
	}
	switch v := e.Attrs[name].(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case float64:
		return int64(v), true
	}
	return 0, false
}

// Str returns a string attribute.
func (e Event) Str(name string) (string, bool) {
	if e.blk != nil {
		return e.blk.strAt(name, int(e.row))
	}
	v, ok := e.Attrs[name].(string)
	return v, ok
}

// Bool returns a boolean attribute.
func (e Event) Bool(name string) (bool, bool) {
	if e.blk != nil {
		return e.blk.boolAt(name, int(e.row))
	}
	v, ok := e.Attrs[name].(bool)
	return v, ok
}

// String renders the event as "type(key)@time".
func (e Event) String() string {
	return fmt.Sprintf("%s(%s)@%d", e.Type, e.Key, int64(e.Time))
}

// KV identifies a fluent instance for a given fluent name: the entity
// Key and the fluent Value. The paper's fluents are written
// F(args...) = V; here the args collapse into Key and V into Value.
// TrueValue is the conventional value for boolean fluents.
type KV struct {
	Key   string
	Value string
}

// TrueValue is the fluent value used by boolean fluents (F = true).
const TrueValue = "true"

// sortEvents orders events by (Time, Type, Key) — a total order over
// the distinct derived-event identities, so slices assembled from map
// iteration come out bit-identical across runs. The sort is stable so
// genuinely duplicated identities keep their arrival order.
//
// It only sorts what is unsorted: rules over the time-sorted window
// views emit in time order, so usually only the runs of events sharing
// a second need the (Type, Key) order, and an already ordered slice
// costs one scan.
func sortEvents(events []Event) {
	var s eventSorter // scratch shared by the tie runs
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			// Not even time-ordered: a rule that emits key by key.
			s.sort(events)
			return
		}
	}
	for lo := 0; lo < len(events); {
		hi := lo + 1
		sorted := true
		for ; hi < len(events) && events[hi].Time == events[lo].Time; hi++ {
			sorted = sorted && CompareIdentity(&events[hi-1], &events[hi]) <= 0
		}
		if !sorted {
			s.sort(events[lo:hi])
		}
		lo = hi
	}
}

// CompareIdentity orders events by identity — (Time, Type, Key) — the
// order of every event list in a Result.
func CompareIdentity(a, b *Event) int {
	if c := cmp.Compare(a.Time, b.Time); c != 0 {
		return c
	}
	if c := strings.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	return strings.Compare(a.Key, b.Key)
}

// eventSorter sorts events stably by CompareIdentity while moving each of
// the 64-byte, pointer-carrying records only twice: it sorts a
// permutation (position breaks ties, which is what makes it stable) and
// then applies it through a scratch copy.
type eventSorter struct {
	perm []int32
	tmp  []Event
}

func (s *eventSorter) sort(events []Event) {
	s.perm = s.perm[:0]
	for i := range events {
		s.perm = append(s.perm, int32(i))
	}
	slices.SortFunc(s.perm, func(a, b int32) int {
		if c := CompareIdentity(&events[a], &events[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	s.tmp = append(s.tmp[:0], events...)
	for i, p := range s.perm {
		events[i] = s.tmp[p]
	}
}

// mergeEvents merges runs that are each in sortEvents order into one
// slice in that order; on ties the earlier run's events come first.
func mergeEvents(runs [][]Event) []Event {
	n, live := 0, 0
	for _, r := range runs {
		n += len(r)
		if len(r) > 0 {
			runs[live] = r
			live++
		}
	}
	runs = runs[:live]
	switch live {
	case 0:
		return nil
	case 1:
		return runs[0] // shared with the input, like every Result list
	}
	out := make([]Event, 0, n)
	for len(runs) > 0 {
		best := 0
		for i := 1; i < len(runs); i++ {
			if CompareIdentity(&runs[i][0], &runs[best][0]) < 0 {
				best = i
			}
		}
		out = append(out, runs[best][0])
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			runs = slices.Delete(runs, best, best+1)
		}
	}
	return out
}
