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
	assign  func(Event) int //state:transient routing function, supplied at construction
	// blockAssign, when set, routes block rows without materializing
	// per-row view Events: it is called once per block and the
	// returned function once per row, so column lookups are hoisted
	// out of the row loop. Must agree with assign on every row.
	//state:transient routing function, supplied at construction
	blockAssign func(*Block) func(int) int

	// scratch holds the per-partition row lists InputBlock routes
	// into; reused across calls (Input* calls must not be concurrent,
	// matching the single-writer contract of the underlying engines).
	scratch [][]int32 //state:transient reusable scratch
}

// NewPartitioned builds n engines sharing the (immutable) definition
// set. assign maps each input event to a partition in [0, n); events
// mapped outside that range are rejected by Input.
func NewPartitioned(defs *Definitions, opts Options, n int, assign func(Event) int) (*Partitioned, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rtec: partition count must be positive, got %d", n)
	}
	if assign == nil {
		return nil, fmt.Errorf("rtec: nil partition function")
	}
	p := &Partitioned{assign: assign}
	for i := 0; i < n; i++ {
		e, err := NewEngine(defs, opts)
		if err != nil {
			return nil, err
		}
		p.engines = append(p.engines, e)
	}
	return p, nil
}

// SetBlockAssign installs a block-level partition router used by
// InputBlock and InputBlockRows in place of the per-event assign
// function. f is called once per block; the function it returns maps a
// row index to a partition and must return, for every row, exactly the
// partition assign returns for that row's view Event — the router is a
// performance hook, not a semantic one. Pass nil to fall back to
// per-row Event routing.
func (p *Partitioned) SetBlockAssign(f func(*Block) func(int) int) { p.blockAssign = f }

// NumPartitions returns the number of engines.
func (p *Partitioned) NumPartitions() int { return len(p.engines) }

// Engine returns the i-th partition engine (for inspection; do not
// drive it directly while using the Partitioned wrapper concurrently).
func (p *Partitioned) Engine(i int) *Engine { return p.engines[i] }

// Input routes events to their partitions.
func (p *Partitioned) Input(events ...Event) error {
	for _, ev := range events {
		i := p.assign(ev)
		if i < 0 || i >= len(p.engines) {
			return fmt.Errorf("rtec: event %v assigned to invalid partition %d", ev, i)
		}
		if err := p.engines[i].Input(ev); err != nil {
			return err
		}
	}
	return nil
}

// InputBlock routes the rows of a columnar batch to their partitions.
// Row order is preserved within each partition, so the per-engine
// store ends up in exactly the state per-event routing produces.
func (p *Partitioned) InputBlock(b *Block) error {
	return p.inputBlock(b, nil)
}

// InputBlockRows is InputBlock restricted to the given rows of b, in
// the given order.
func (p *Partitioned) InputBlockRows(b *Block, rows []int32) error {
	return p.inputBlock(b, rows)
}

func (p *Partitioned) inputBlock(b *Block, rows []int32) error {
	if p.scratch == nil {
		p.scratch = make([][]int32, len(p.engines))
	}
	for i := range p.scratch {
		p.scratch[i] = p.scratch[i][:0]
	}
	var rowOf func(int) int
	if p.blockAssign != nil {
		rowOf = p.blockAssign(b)
	}
	route := func(r int32) error {
		var i int
		if rowOf != nil {
			i = rowOf(int(r))
		} else {
			i = p.assign(b.Event(int(r)))
		}
		if i < 0 || i >= len(p.engines) {
			return fmt.Errorf("rtec: event %v assigned to invalid partition %d", b.Event(int(r)), i)
		}
		p.scratch[i] = append(p.scratch[i], r)
		return nil
	}
	if rows == nil {
		n := b.Len()
		for r := 0; r < n; r++ {
			if err := route(int32(r)); err != nil {
				return err
			}
		}
	} else {
		for _, r := range rows {
			if err := route(r); err != nil {
				return err
			}
		}
	}
	for i, part := range p.scratch {
		if len(part) == 0 {
			continue
		}
		if err := p.engines[i].InputBlockRows(b, part); err != nil {
			return err
		}
	}
	return nil
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
