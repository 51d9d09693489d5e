package rtec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/insight-dublin/insight/interval"
)

// incDefs builds a definition set exercising every incremental-path
// regime: pointwise rules, a lookahead fluent, a lookback pair rule, a
// derived-event reader (head-recompute region), a static fluent, a
// multi-valued fluent, and a non-local rule that must always fall back
// to full recomputation.
func incDefs(t *testing.T) *Definitions {
	t.Helper()
	const (
		la = 7 // lookahead of "look"
		lb = 5 // lookback of "pair"
	)
	b := NewBuilder().DeclareSDE("a", "b")
	b.Simple(SimpleFluent{
		Name:     "p",
		Inputs:   []string{"a"},
		Locality: Pointwise(),
		Transitions: func(ctx *Context, out []Transition) []Transition {
			for _, e := range ctx.Events("a") {
				if v, _ := e.Int("v"); v > 0 {
					out = append(out, InitiateAt(e.Key, e.Time))
				} else {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
			}
			return out
		},
	})
	b.Simple(SimpleFluent{
		Name:     "look",
		Inputs:   []string{"a", "b"},
		Locality: LocalWindow(0, la),
		Transitions: func(ctx *Context, out []Transition) []Transition {
			for _, e := range ctx.Events("a") {
				confirmed := false
				for _, c := range ctx.RowsForKey("b", e.Key).Slice() {
					if dt := c.Time - e.Time; dt > 0 && dt <= la {
						confirmed = true
						break
					}
				}
				if confirmed {
					out = append(out, InitiateAt(e.Key, e.Time))
				} else {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
			}
			return out
		},
	})
	b.Simple(SimpleFluent{
		Name:     "multi",
		Inputs:   []string{"a"},
		Locality: Pointwise(),
		Transitions: func(ctx *Context, out []Transition) []Transition {
			for _, e := range ctx.Events("a") {
				val := "lo"
				if v, _ := e.Int("v"); v > 2 {
					val = "hi"
				}
				out = append(out, Transition{Kind: Initiate, Key: e.Key, Value: val, Time: e.Time})
			}
			return out
		},
	})
	b.Simple(SimpleFluent{
		// Non-local: pairs consecutive "b" events at unbounded gaps.
		Name:   "nonlocal",
		Inputs: []string{"b"},
		Transitions: func(ctx *Context, out []Transition) []Transition {
			for _, key := range ctx.EventKeys("b") {
				evs := ctx.RowsForKey("b", key).Slice()
				for i := 1; i < len(evs); i++ {
					pv, _ := evs[i-1].Int("v")
					cv, _ := evs[i].Int("v")
					if cv > pv {
						out = append(out, InitiateAt(key, evs[i].Time))
					} else {
						out = append(out, TerminateAt(key, evs[i].Time))
					}
				}
			}
			return out
		},
	})
	b.Event(EventRule{
		Name:     "pair",
		Inputs:   []string{"a"},
		Locality: LocalWindow(lb, 0),
		Derive: func(ctx *Context) []Event {
			var out []Event
			for _, key := range ctx.EventKeys("a") {
				evs := ctx.RowsForKey("a", key).Slice()
				for i := 1; i < len(evs); i++ {
					if dt := evs[i].Time - evs[i-1].Time; dt > 0 && dt < lb {
						out = append(out, NewEvent("pair", evs[i].Time, key, nil))
					}
				}
			}
			return out
		},
	})
	b.Event(EventRule{
		// Reads a derived event type with lookback (pair has valueH =
		// lb), so its splice exercises the head-recompute region.
		Name:     "reader",
		Inputs:   []string{"pair", "p"},
		Locality: Pointwise(),
		Derive: func(ctx *Context) []Event {
			var out []Event
			for _, e := range ctx.Events("pair") {
				if ctx.HoldsAtValue("p", e.Key, TrueValue, e.Time) {
					out = append(out, NewEvent("reader", e.Time, e.Key, nil))
				}
			}
			return out
		},
	})
	b.Static(StaticFluent{
		Name:   "s",
		Inputs: []string{"p", "look"},
		HoldsFor: func(ctx *Context) map[KV]IntervalList {
			out := make(map[KV]IntervalList)
			for kv, l := range ctx.FluentInstances("p") {
				if o := ctx.Intervals("look", kv.Key); len(o) > 0 {
					if i := interval.Intersect(l, o); len(i) > 0 {
						out[KV{Key: kv.Key, Value: TrueValue}] = i
					}
				}
			}
			return out
		},
	})
	defs, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return defs
}

type timedEvent struct {
	ev      Event
	arrival Time
}

// randomStream generates a delayed, out-of-order stream: occurrence
// times over [1, horizon], arrival delays up to maxDelay (some events
// arrive before their occurrence time, i.e. early).
func randomStream(rng *rand.Rand, horizon Time, n int, maxDelay Time) []timedEvent {
	keys := []string{"k0", "k1", "k2", "k3"}
	types := []string{"a", "b"}
	out := make([]timedEvent, 0, n)
	for i := 0; i < n; i++ {
		t := Time(rng.Int63n(int64(horizon))) + 1
		delay := Time(rng.Int63n(int64(maxDelay+1))) - 2 // occasionally early
		if delay < 0 && rng.Intn(2) == 0 {
			delay = 0
		}
		out = append(out, timedEvent{
			ev: NewEvent(types[rng.Intn(len(types))], t, keys[rng.Intn(len(keys))],
				map[string]any{"v": int64(rng.Intn(6))}),
			arrival: t + delay,
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].arrival < out[j].arrival })
	return out
}

func canonEvents(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%s|%s|%d|%q", e.Type, e.Key, int64(e.Time), CanonicalAttrs(e))
	}
	sort.Strings(out)
	return out
}

// TestIncrementalEquivalence drives identical seeded random streams
// through the full-recompute and incremental engines across several
// step/WM ratios and asserts identical results at every query time.
func TestIncrementalEquivalence(t *testing.T) {
	const wm = Time(40)
	for _, step := range []Time{wm, wm / 2, wm / 4} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("step=%d/seed=%d", step, seed), func(t *testing.T) {
				defs := incDefs(t)
				mkEngine := func(force bool, workers int) *Engine {
					e, err := NewEngine(defs, Options{
						WorkingMemory:      wm,
						Step:               step,
						ForceFullRecompute: force,
						RuleWorkers:        workers,
					})
					if err != nil {
						t.Fatalf("engine: %v", err)
					}
					return e
				}
				full := mkEngine(true, 1)
				inc := mkEngine(false, 1)
				par := mkEngine(false, 4)
				engines := []*Engine{full, inc, par}

				stream := randomStream(rand.New(rand.NewSource(seed)), 10*wm, 600, step+5)
				cursor := 0
				for q := wm; q <= 10*wm; q += step {
					for cursor < len(stream) && stream[cursor].arrival <= q {
						for _, e := range engines {
							if err := e.Input(stream[cursor].ev); err != nil {
								t.Fatalf("input: %v", err)
							}
						}
						cursor++
					}
					want, err := full.Query(q)
					if err != nil {
						t.Fatalf("full query(%d): %v", q, err)
					}
					for name, e := range map[string]*Engine{"incremental": inc, "parallel": par} {
						got, err := e.Query(q)
						if err != nil {
							t.Fatalf("%s query(%d): %v", name, q, err)
						}
						if !reflect.DeepEqual(got.Fluents, want.Fluents) {
							t.Fatalf("%s fluents diverge at q=%d:\n got %v\nwant %v", name, q, got.Fluents, want.Fluents)
						}
						for typ := range want.Derived {
							g, w := canonEvents(got.Derived[typ]), canonEvents(want.Derived[typ])
							if !reflect.DeepEqual(g, w) {
								t.Fatalf("%s derived %q diverge at q=%d:\n got %v\nwant %v", name, typ, q, g, w)
							}
						}
						if len(got.Derived) != len(want.Derived) {
							t.Fatalf("%s derived type sets diverge at q=%d", name, q)
						}
						g, w := canonEvents(got.Fresh), canonEvents(want.Fresh)
						if !reflect.DeepEqual(g, w) {
							t.Fatalf("%s fresh diverge at q=%d:\n got %v\nwant %v", name, q, g, w)
						}
						if got.Stats.InputEvents != want.Stats.InputEvents {
							t.Fatalf("%s input count diverges at q=%d: got %d want %d",
								name, q, got.Stats.InputEvents, want.Stats.InputEvents)
						}
					}
				}
			})
		}
	}
}

// TestSpliceEngages asserts the incremental path actually narrows what
// a local rule re-reads on overlapping windows — guarding against a
// silent always-full fallback.
func TestSpliceEngages(t *testing.T) {
	var seen []int
	b := NewBuilder().DeclareSDE("a")
	b.Simple(SimpleFluent{
		Name:     "f",
		Inputs:   []string{"a"},
		Locality: Pointwise(),
		Transitions: func(ctx *Context, out []Transition) []Transition {
			seen = append(seen, len(ctx.Events("a")))
			for _, e := range ctx.Events("a") {
				out = append(out, InitiateAt(e.Key, e.Time))
			}
			return out
		},
	})
	defs, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e, err := NewEngine(defs, Options{WorkingMemory: 100, Step: 10})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i := Time(1); i <= 100; i++ {
		if err := e.Input(NewEvent("a", i, "k", nil)); err != nil {
			t.Fatalf("input: %v", err)
		}
	}
	if _, err := e.Query(100); err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(seen) != 1 || seen[0] != 100 {
		t.Fatalf("first query should see the full window, saw %v", seen)
	}
	// Slide by 10 with no new events: the rule must only re-read the
	// fresh tail, not the 90-point overlap.
	seen = nil
	if _, err := e.Query(110); err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(seen) != 1 || seen[0] >= 50 {
		t.Fatalf("overlapping query should re-read only the tail, saw %v", seen)
	}
}

// TestInputAtomic verifies that a batch containing an undeclared event
// type is rejected without ingesting any of its events.
func TestInputAtomic(t *testing.T) {
	defs := incDefs(t)
	e, err := NewEngine(defs, Options{WorkingMemory: 100})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	err = e.Input(
		NewEvent("a", 10, "k0", map[string]any{"v": int64(3)}),
		NewEvent("bogus", 11, "k0", nil),
		NewEvent("a", 12, "k0", map[string]any{"v": int64(3)}),
	)
	if err == nil {
		t.Fatal("expected error for undeclared type")
	}
	res, err := e.Query(50)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if res.Stats.InputEvents != 0 {
		t.Fatalf("rejected batch leaked %d events into the store", res.Stats.InputEvents)
	}
}

// TestMergeResultsSumsStats verifies profile totals still sum across
// partitions with the new Stats fields.
func TestMergeResultsSumsStats(t *testing.T) {
	mk := func(alloc uint64, gor int, cost time.Duration) *Result {
		return &Result{
			Fluents: map[string]map[KV]List{},
			Derived: map[string][]Event{},
			Stats:   Stats{InputEvents: 1, AllocBytes: alloc, EvalGoroutines: gor},
			RuleCosts: map[string]time.Duration{
				"r": cost,
			},
		}
	}
	m := MergeResults([]*Result{mk(100, 2, time.Millisecond), mk(250, 3, 2*time.Millisecond)})
	if m.Stats.AllocBytes != 350 {
		t.Fatalf("AllocBytes = %d, want 350", m.Stats.AllocBytes)
	}
	if m.Stats.EvalGoroutines != 5 {
		t.Fatalf("EvalGoroutines = %d, want 5", m.Stats.EvalGoroutines)
	}
	if m.RuleCosts["r"] != 3*time.Millisecond {
		t.Fatalf("RuleCosts[r] = %v, want 3ms", m.RuleCosts["r"])
	}
	if m.Stats.InputEvents != 2 {
		t.Fatalf("InputEvents = %d, want 2", m.Stats.InputEvents)
	}

	// Derived events and periods are counted on the merged view: an
	// instance two engines computed from replicated input is one period,
	// whatever the parts' own counts say.
	replica := func() *Result {
		return &Result{
			Fluents: map[string]map[KV]List{"f": {{Key: "k", Value: TrueValue}: {{Start: 1, End: 5}}}},
			Derived: map[string][]Event{"d": {NewEvent("d", 3, "k", nil)}},
			Stats:   Stats{DerivedEvents: 7, FluentPeriods: 7},
		}
	}
	m = MergeResults([]*Result{replica(), replica()})
	if m.Stats.FluentPeriods != 1 || m.Stats.DerivedEvents != len(m.Derived["d"]) {
		t.Fatalf("merged stats = %+v for %v / %v, want the merged view's counts", m.Stats, m.Fluents, m.Derived)
	}
}

// TestParallelRuleCosts runs many same-stratum rules concurrently under
// Profile and checks every rule's cost is recorded (the map writes are
// mutex-guarded) and the goroutine count is reported.
func TestParallelRuleCosts(t *testing.T) {
	b := NewBuilder().DeclareSDE("a")
	const n = 12
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("r%d", i)
		b.Event(EventRule{
			Name:   name,
			Inputs: []string{"a"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, e := range ctx.Events("a") {
					out = append(out, NewEvent(name, e.Time, e.Key, nil))
				}
				return out
			},
		})
	}
	defs, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e, err := NewEngine(defs, Options{WorkingMemory: 50, Profile: true, RuleWorkers: 4})
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	for i := Time(1); i <= 20; i++ {
		if err := e.Input(NewEvent("a", i, "k", nil)); err != nil {
			t.Fatalf("input: %v", err)
		}
	}
	res, err := e.Query(30)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(res.RuleCosts) != n {
		t.Fatalf("RuleCosts has %d entries, want %d", len(res.RuleCosts), n)
	}
	if res.Stats.EvalGoroutines != 4 {
		t.Fatalf("EvalGoroutines = %d, want 4", res.Stats.EvalGoroutines)
	}
	if res.Stats.AllocBytes == 0 {
		t.Fatal("AllocBytes not recorded under Profile")
	}
	for i := 0; i < n; i++ {
		if len(res.Derived[fmt.Sprintf("r%d", i)]) != 20 {
			t.Fatalf("rule r%d derived %d events, want 20", i, len(res.Derived[fmt.Sprintf("r%d", i)]))
		}
	}
}
