package rtec

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"github.com/insight-dublin/insight/interval"
)

// Partitioned runs several independent RTEC engines over a partition
// of the input stream and evaluates them concurrently. The paper
// distributes Dublin CE recognition over the four geographical areas
// of the city — "each processor computed CEs concerning the SCATS
// sensors of one of the four areas of Dublin as well as CEs concerning
// the buses that go through that area" (Section 7.1).
type Partitioned struct {
	engines []*Engine
	// route maps block rows to partitions without materializing
	// per-row view Events: it is called once per block and the
	// returned function once per row, so column lookups are hoisted
	// out of the row loop.
	route func(*Block) func(int) int //state:transient routing function, supplied at construction

	// fan files cuts into the engines, one goroutine per engine.
	fan *Fanout //state:transient routing and filing scratch
}

// NewPartitioned builds n engines sharing the (immutable) definition
// set. route is called once per block; the function it returns maps a
// row to a partition in [0, n), and InputCut refuses a cut with a row
// mapped outside that range.
func NewPartitioned(defs *Definitions, opts Options, n int, route func(*Block) func(int) int) (*Partitioned, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rtec: partition count must be positive, got %d", n)
	}
	if route == nil {
		return nil, fmt.Errorf("rtec: nil partition function")
	}
	p := &Partitioned{route: route}
	for i := 0; i < n; i++ {
		e, err := NewEngine(defs, opts)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	p.fan = NewFanout(p.engines)
	return p, nil
}

// Engine returns the i-th partition engine (for inspection; do not
// drive it directly while using the Partitioned wrapper concurrently).
//
//lint:allow unusedapi one partition's engine, for the tests that hold InputCut to serial filing
func (p *Partitioned) Engine(i int) *Engine { return p.engines[i] }

// InputCut routes every run of a cut to its partitions and has each
// engine file its share concurrently (see Fanout). Row order is
// preserved within each partition, so the per-engine store ends up in
// exactly the state filing row by row produces. It returns the
// engines' filing times (see Fanout.InputCut).
func (p *Partitioned) InputCut(cut []BlockRun) ([]time.Duration, error) {
	return p.fan.InputCut(cut, p.route)
}

// Query evaluates every partition at query time q, concurrently, and
// returns the per-partition results in partition order.
func (p *Partitioned) Query(q Time) ([]*Result, error) {
	results := make([]*Result, len(p.engines))
	errs := make([]error, len(p.engines))
	var wg sync.WaitGroup
	for i, e := range p.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			results[i], errs[i] = e.Query(q)
		}(i, e)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// MergeResults combines per-partition Query results for the same query
// time into a single view: fluent instances and derived events are
// unioned (event lists merged in the engines' (time, type, key) order)
// and the derived-event and period statistics are those of that view.
// Instances recognised in several partitions (which should not happen
// with a consistent partition function) have their intervals unioned.
func MergeResults(results []*Result) *Result {
	if len(results) == 0 {
		return nil
	}
	out := &Result{
		Q:       results[0].Q,
		Window:  results[0].Window,
		Fluents: make(map[string]map[KV]List),
		Derived: make(map[string][]Event),
	}
	for _, r := range results {
		for name, insts := range r.Fluents {
			m := out.Fluents[name]
			if m == nil {
				m = make(map[KV]List, len(insts))
				out.Fluents[name] = m
			}
			for kv, l := range insts {
				// Replicated input gives every engine the same list.
				if existing, ok := m[kv]; !ok {
					m[kv] = l
				} else if !slices.Equal(existing, l) {
					m[kv] = interval.Union(existing, l)
				}
			}
		}
		out.Stats.InputEvents += r.Stats.InputEvents
		out.Stats.AllocBytes += r.Stats.AllocBytes
		out.Stats.ResidentBytes += r.Stats.ResidentBytes
		out.Stats.EvalGoroutines += r.Stats.EvalGoroutines
		out.Stats.Joins += r.Stats.Joins
		out.Stats.InsertedRows += r.Stats.InsertedRows
		if r.Stats.Elapsed > out.Stats.Elapsed {
			out.Stats.Elapsed = r.Stats.Elapsed // parallel: max, not sum
		}
		// Rule costs are total work per rule, summed across
		// partitions (unlike Elapsed, which is parallel wall time).
		if r.RuleCosts != nil {
			if out.RuleCosts == nil {
				out.RuleCosts = make(map[string]time.Duration, len(r.RuleCosts))
			}
			for name, d := range r.RuleCosts {
				out.RuleCosts[name] += d
			}
		}
	}
	// Every result's lists are in sortEvents order already: merge them.
	derived := make(map[string][][]Event)
	fresh := make([][]Event, 0, len(results))
	for _, r := range results {
		for typ, evs := range r.Derived {
			derived[typ] = append(derived[typ], evs)
		}
		fresh = append(fresh, r.Fresh)
	}
	for typ, runs := range derived {
		out.Derived[typ] = mergeEvents(runs)
		out.Stats.DerivedEvents += len(out.Derived[typ])
	}
	out.Fresh = mergeEvents(fresh)
	// Periods are counted on the merged view, not summed: an instance
	// several engines computed from replicated input counts once.
	for _, m := range out.Fluents {
		for _, l := range m {
			out.Stats.FluentPeriods += len(l)
		}
	}
	return out
}
