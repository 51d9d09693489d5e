package rtec

import (
	"fmt"
	"testing"
)

// Window-boundary semantics: an event exactly at Q-WM is discarded;
// one at Q-WM+1 is kept.
func TestWindowBoundaryInclusion(t *testing.T) {
	defs := onOffDefs(t)
	e, _ := NewEngine(defs, Options{WorkingMemory: 100})
	if err := e.Input(
		ev("on", 100, "edge"), // exactly Q-WM for Q=200: discarded
		ev("on", 101, "kept"), // first point inside the window
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals("power", "edge")) != 0 {
		t.Errorf("event at Q-WM must be discarded: %v", res.Intervals("power", "edge"))
	}
	if res.Intervals("power", "kept").Empty() {
		t.Error("event at Q-WM+1 must be considered")
	}
	if res.Stats.InputEvents != 1 {
		t.Errorf("InputEvents = %d, want 1", res.Stats.InputEvents)
	}
}

// An event exactly at Q is visible at Q.
func TestEventAtQueryTimeVisible(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 100})
	if err := e.Input(ev("on", 50, "x")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	// Initiated at 50 -> holds from 51, which is outside [Q-WM+1, Q+1)?
	// No: the window is [-49, 51), so the single point 50... the fluent
	// holds on [51, ...) which clips to empty. The EVENT is visible
	// (InputEvents = 1) even though the fluent has no in-window extent
	// yet.
	if res.Stats.InputEvents != 1 {
		t.Errorf("InputEvents = %d, want 1", res.Stats.InputEvents)
	}
	if len(res.Intervals("power", "x")) != 0 {
		t.Errorf("fluent initiated at Q has no extent before Q+1: %v", res.Intervals("power", "x"))
	}
	// At the next query the fluent shows up.
	res, err = e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HoldsAt("power", "x", 60) {
		t.Error("fluent must hold after initiation at previous Q")
	}
}

// Step larger than WM leaves unobserved gaps; inertia must still carry
// open fluents across them.
func TestInertiaAcrossGap(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 50, Step: 200})
	if err := e.Input(ev("on", 80, "x")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HoldsAt("power", "x", 90) {
		t.Fatal("fluent must hold in the first window")
	}
	// Next query at 300: window (250, 300]; nothing happened since.
	res, err = e.Query(300)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HoldsAt("power", "x", 280) {
		t.Error("open fluent must persist across the unobserved gap")
	}
	// Events inside the gap are lost entirely (windowing semantics):
	// an "off" at 150 that arrives late changes nothing.
	if err := e.Input(ev("off", 150, "x")); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.HoldsAt("power", "x", 480) {
		t.Error("event lost in the gap must not retroactively terminate")
	}
}

func TestFreshSetPruned(t *testing.T) {
	defs, err := NewBuilder().
		DeclareSDE("ping").
		Event(EventRule{
			Name:   "echo",
			Inputs: []string{"ping"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, e := range ctx.Events("ping") {
					out = append(out, NewEvent("echo", e.Time, e.Key, nil))
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 100, Step: 100})
	for q := Time(100); q <= 1000; q += 100 {
		if err := e.Input(ev("ping", q-50, "x")); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Fresh) != 1 {
			t.Fatalf("Q=%d: Fresh = %v", q, res.Fresh)
		}
	}
	// The seen-set must not accumulate entries forever.
	if n := len(e.seen.Entries()); n > 2 {
		t.Errorf("seen set grew to %d entries; pruning broken", n)
	}
}

func TestResultAccessorsNilSafety(t *testing.T) {
	r := &Result{Fluents: map[string]map[KV]List{}}
	if r.HoldsAt("ghost", "x", 1) {
		t.Error("missing fluent must not hold")
	}
	if r.Intervals("ghost", "x") != nil {
		t.Error("missing fluent must have no intervals")
	}
}

// Transitions reported outside the window are ignored rather than
// corrupting the interval computation.
func TestOutOfWindowTransitionsIgnored(t *testing.T) {
	defs, err := NewBuilder().
		DeclareSDE("tick").
		Simple(SimpleFluent{
			Name:   "weird",
			Inputs: []string{"tick"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				// A buggy rule emitting transitions far outside the
				// window in both directions, plus one valid.
				q := ctx.Window().End - 1
				return append(out,
					InitiateAt("x", q-10_000),
					InitiateAt("x", q+10_000),
					InitiateAt("x", q-5),
				)
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 100})
	if err := e.Input(ev("tick", 95, "x")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Intervals("weird", "x")
	want := List{{Start: 96, End: 101}}
	if !got.Equal(want) {
		t.Errorf("intervals = %v, want %v (only the in-window initiation)", got, want)
	}
}

// Two engines fed identically produce identical results (no hidden
// global state).
func TestEngineDeterminism(t *testing.T) {
	defs := onOffDefs(t)
	feed := func() *Result {
		e, _ := NewEngine(defs, Options{WorkingMemory: 1000})
		for i := 0; i < 100; i++ {
			typ := "on"
			if i%3 == 0 {
				typ = "off"
			}
			if err := e.Input(ev(typ, Time(i*7%500), fmt.Sprintf("k%d", i%5))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(600)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := feed(), feed()
	if len(a.Fluents["power"]) != len(b.Fluents["power"]) {
		t.Fatal("instance counts differ")
	}
	for kv, l := range a.Fluents["power"] {
		if !l.Equal(b.Fluents["power"][kv]) {
			t.Fatalf("instance %v differs: %v vs %v", kv, l, b.Fluents["power"][kv])
		}
	}
}

func TestProfileRuleCosts(t *testing.T) {
	defs := onOffDefs(t)
	e, _ := NewEngine(defs, Options{WorkingMemory: 100, Profile: true})
	if err := e.Input(ev("on", 10, "x")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	if res.RuleCosts == nil {
		t.Fatal("Profile option must populate RuleCosts")
	}
	if _, ok := res.RuleCosts["power"]; !ok {
		t.Errorf("RuleCosts = %v, want an entry for 'power'", res.RuleCosts)
	}
	// Without the option the map stays nil.
	e2, _ := NewEngine(defs, Options{WorkingMemory: 100})
	res2, err := e2.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	if res2.RuleCosts != nil {
		t.Error("RuleCosts must be nil without Profile")
	}
}

func TestMergeResultsSumsRuleCosts(t *testing.T) {
	defs := onOffDefs(t)
	part, err := NewPartitioned(defs, Options{WorkingMemory: 100, Profile: true}, 2,
		byEvent(func(e Event) int {
			if e.Key < "m" {
				return 0
			}
			return 1
		}))
	if err != nil {
		t.Fatal(err)
	}
	if err := inputEvents(part, ev("on", 10, "a"), ev("on", 20, "z")); err != nil {
		t.Fatal(err)
	}
	results, err := part.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	merged := MergeResults(results)
	if merged.RuleCosts == nil || merged.RuleCosts["power"] <= 0 {
		t.Errorf("merged RuleCosts = %v", merged.RuleCosts)
	}
	want := results[0].RuleCosts["power"] + results[1].RuleCosts["power"]
	if merged.RuleCosts["power"] != want {
		t.Errorf("merged cost = %v, want sum %v", merged.RuleCosts["power"], want)
	}
}

// Feeding the same events in any arrival order (all before the query)
// must produce identical results: recognition depends on occurrence
// times, not delivery order.
func TestQueryOrderIndependence(t *testing.T) {
	defs := onOffDefs(t)
	events := []Event{
		ev("on", 10, "a"), ev("off", 30, "a"), ev("on", 35, "a"),
		ev("on", 20, "b"), ev("off", 80, "b"),
		ev("on", 70, "a"),
	}
	run := func(order []int) *Result {
		e, _ := NewEngine(defs, Options{WorkingMemory: 1000})
		for _, i := range order {
			if err := e.Input(events[i]); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(500)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base := run([]int{0, 1, 2, 3, 4, 5})
	perms := [][]int{
		{5, 4, 3, 2, 1, 0},
		{2, 0, 4, 1, 5, 3},
		{3, 5, 0, 2, 4, 1},
	}
	for _, perm := range perms {
		got := run(perm)
		for kv, l := range base.Fluents["power"] {
			if !l.Equal(got.Fluents["power"][kv]) {
				t.Fatalf("order %v: %v = %v, want %v", perm, kv, got.Fluents["power"][kv], l)
			}
		}
		if len(got.Fluents["power"]) != len(base.Fluents["power"]) {
			t.Fatalf("order %v: instance count differs", perm)
		}
	}
}
