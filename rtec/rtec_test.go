package rtec

import (
	"strings"
	"testing"

	"github.com/insight-dublin/insight/interval"
)

func sp(a, b Time) Span { return Span{Start: a, End: b} }

// onOff defines a boolean fluent "power" initiated by "on" events and
// terminated by "off" events, keyed by the device.
func onOffDefs(t *testing.T) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("on", "off").
		Simple(SimpleFluent{
			Name:   "power",
			Inputs: []string{"on", "off"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				for _, e := range ctx.Events("on") {
					out = append(out, InitiateAt(e.Key, e.Time))
				}
				for _, e := range ctx.Events("off") {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

func ev(typ string, t Time, key string) Event { return NewEvent(typ, t, key, nil) }

func TestBuilderCompileErrors(t *testing.T) {
	cases := []struct {
		name    string
		build   func() *Builder
		wantSub string
	}{
		{
			"duplicate name",
			func() *Builder {
				return NewBuilder().DeclareSDE("a").Simple(SimpleFluent{
					Name: "a", Transitions: func(_ *Context, out []Transition) []Transition { return out },
				})
			},
			"duplicate",
		},
		{
			"unknown input",
			func() *Builder {
				return NewBuilder().Simple(SimpleFluent{
					Name: "f", Inputs: []string{"ghost"},
					Transitions: func(_ *Context, out []Transition) []Transition { return out },
				})
			},
			"unknown input",
		},
		{
			"nil transitions",
			func() *Builder {
				return NewBuilder().Simple(SimpleFluent{Name: "f"})
			},
			"no Transitions",
		},
		{
			"nil holdsFor",
			func() *Builder {
				return NewBuilder().Static(StaticFluent{Name: "f"})
			},
			"no HoldsFor",
		},
		{
			"nil derive",
			func() *Builder {
				return NewBuilder().Event(EventRule{Name: "f"})
			},
			"no Derive",
		},
		{
			"empty name",
			func() *Builder {
				return NewBuilder().Simple(SimpleFluent{
					Transitions: func(_ *Context, out []Transition) []Transition { return out },
				})
			},
			"empty name",
		},
		{
			"cycle",
			func() *Builder {
				tf := func(_ *Context, out []Transition) []Transition { return out }
				return NewBuilder().
					Simple(SimpleFluent{Name: "a", Inputs: []string{"b"}, Transitions: tf}).
					Simple(SimpleFluent{Name: "b", Inputs: []string{"a"}, Transitions: tf})
			},
			"cyclic",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := c.build().Compile()
			if err == nil || !strings.Contains(err.Error(), c.wantSub) {
				t.Errorf("err = %v, want substring %q", err, c.wantSub)
			}
		})
	}
}

func TestStratification(t *testing.T) {
	tf := func(_ *Context, out []Transition) []Transition { return out }
	hf := func(*Context) map[KV]IntervalList { return nil }
	defs, err := NewBuilder().
		DeclareSDE("sde").
		Static(StaticFluent{Name: "c", Inputs: []string{"b"}, HoldsFor: hf}).
		Simple(SimpleFluent{Name: "b", Inputs: []string{"a"}, Transitions: tf}).
		Simple(SimpleFluent{Name: "a", Inputs: []string{"sde"}, Transitions: tf}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	strata := strataOf(defs)
	if len(strata) != 3 {
		t.Fatalf("strata = %v, want 3 levels", strata)
	}
	if strata[0][0] != "a" || strata[1][0] != "b" || strata[2][0] != "c" {
		t.Errorf("strata order wrong: %v", strata)
	}
	if !defs.IsSDE("sde") || defs.IsSDE("a") {
		t.Error("IsSDE misclassifies")
	}
	if len(defs.names) != 4 {
		t.Errorf("names = %v", defs.names)
	}
}

func TestEngineOptionValidation(t *testing.T) {
	defs := onOffDefs(t)
	if _, err := NewEngine(nil, Options{WorkingMemory: 10}); err == nil {
		t.Error("nil definitions must error")
	}
	if _, err := NewEngine(defs, Options{WorkingMemory: 0}); err == nil {
		t.Error("zero WM must error")
	}
	if _, err := NewEngine(defs, Options{WorkingMemory: 10, Step: -1}); err == nil {
		t.Error("negative step must error")
	}
	if _, err := NewEngine(defs, Options{WorkingMemory: 10, RuleWorkers: -1}); err == nil {
		t.Error("negative rule workers must error")
	}
}

func TestInputRejectsUnknownType(t *testing.T) {
	e, err := NewEngine(onOffDefs(t), Options{WorkingMemory: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Input(ev("bogus", 1, "x")); err == nil {
		t.Error("undeclared SDE type must be rejected")
	}
}

func TestSimpleFluentInertia(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 100})
	if err := e.Input(
		ev("on", 10, "tv"),
		ev("off", 30, "tv"),
		ev("on", 50, "tv"),
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	got := res.Intervals("power", "tv")
	// Initiated at 10 -> holds from 11; terminated at 30 -> holds
	// through 30; initiated at 50 -> holds from 51 through the window
	// end (clipped at Q+1 = 100).
	want := List{sp(11, 31), sp(51, 100)}
	if !got.Equal(want) {
		t.Errorf("power intervals = %v, want %v", got, want)
	}
	if !res.HoldsAt("power", "tv", 20) || res.HoldsAt("power", "tv", 40) || !res.HoldsAt("power", "tv", 99) {
		t.Error("HoldsAt disagrees with intervals")
	}
	if res.HoldsAt("power", "radio", 20) {
		t.Error("unrelated key must not hold")
	}
}

func TestInertiaAcrossWindows(t *testing.T) {
	// Step = WM = 50: windows abut. A fluent initiated in window 1
	// and never terminated must still hold throughout window 2.
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 50, Step: 50})
	if err := e.Input(ev("on", 10, "tv")); err != nil {
		t.Fatal(err)
	}
	res1, err := e.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Intervals("power", "tv").Equal(List{sp(11, 51)}) {
		t.Fatalf("window 1 intervals = %v", res1.Intervals("power", "tv"))
	}

	// No new events at all in window 2.
	res2, err := e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Intervals("power", "tv").Equal(List{sp(51, 101)}) {
		t.Errorf("window 2 intervals = %v, want [51, 101) (inertia)", res2.Intervals("power", "tv"))
	}

	// Termination in window 3 closes it.
	if err := e.Input(ev("off", 120, "tv")); err != nil {
		t.Fatal(err)
	}
	res3, err := e.Query(150)
	if err != nil {
		t.Fatal(err)
	}
	if !res3.Intervals("power", "tv").Equal(List{sp(101, 121)}) {
		t.Errorf("window 3 intervals = %v, want [101, 121)", res3.Intervals("power", "tv"))
	}

	// Window 4: nothing holds any more.
	res4, err := e.Query(200)
	if err != nil {
		t.Fatal(err)
	}
	if len(res4.Intervals("power", "tv")) != 0 {
		t.Errorf("window 4 intervals = %v, want empty", res4.Intervals("power", "tv"))
	}
}

// TestDelayedEvents reproduces the Figure 2 scenario: the window is
// larger than the step, so SDEs that occurred before the previous
// query time but arrived after it are incorporated at the next query.
func TestDelayedEvents(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 100, Step: 50})

	// Query at 100 with no knowledge of the "on" at 80.
	if _, err := e.Query(100); err != nil {
		t.Fatal(err)
	}

	// The delayed SDE arrives after Q=100 but occurred at 80, inside
	// the next window (50, 150].
	if err := e.Input(ev("on", 80, "tv")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(150)
	if err != nil {
		t.Fatal(err)
	}
	want := List{sp(81, 151)}
	if !res.Intervals("power", "tv").Equal(want) {
		t.Errorf("delayed event not incorporated: %v, want %v", res.Intervals("power", "tv"), want)
	}
}

func TestTooOldEventsDiscarded(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 50, Step: 50})
	if _, err := e.Query(100); err != nil {
		t.Fatal(err)
	}
	// Occurred at 40 <= Q-WM = 50: permanently out of any window.
	if err := e.Input(ev("on", 40, "tv")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(150)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals("power", "tv")) != 0 {
		t.Errorf("too-old event should be discarded, got %v", res.Intervals("power", "tv"))
	}
	if res.Stats.InputEvents != 0 {
		t.Errorf("InputEvents = %d, want 0", res.Stats.InputEvents)
	}
}

func TestFutureEventsHidden(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 100, Step: 50})
	if err := e.Input(ev("on", 70, "tv")); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Intervals("power", "tv")) != 0 {
		t.Error("event after Q must not be visible yet")
	}
	res, err = e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Intervals("power", "tv").Equal(List{sp(71, 101)}) {
		t.Errorf("event should appear at the next query: %v", res.Intervals("power", "tv"))
	}
}

func TestQueryTimesMustIncrease(t *testing.T) {
	e, _ := NewEngine(onOffDefs(t), Options{WorkingMemory: 10})
	if _, err := e.Query(10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(10); err == nil {
		t.Error("repeated query time must error")
	}
	if _, err := e.Query(5); err == nil {
		t.Error("decreasing query time must error")
	}
}

func TestMultiValueFluent(t *testing.T) {
	// A traffic light fluent with values green/red; initiating one
	// value terminates the other.
	defs, err := NewBuilder().
		DeclareSDE("setLight").
		Simple(SimpleFluent{
			Name:   "light",
			Inputs: []string{"setLight"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				for _, e := range ctx.Events("setLight") {
					color, _ := e.Str("color")
					out = append(out, Transition{Kind: Initiate, Key: e.Key, Value: color, Time: e.Time})
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 100})
	if err := e.Input(
		NewEvent("setLight", 10, "x", map[string]any{"color": "green"}),
		NewEvent("setLight", 40, "x", map[string]any{"color": "red"}),
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	green := res.Fluents["light"][KV{Key: "x", Value: "green"}]
	red := res.Fluents["light"][KV{Key: "x", Value: "red"}]
	if !green.Equal(List{sp(11, 41)}) {
		t.Errorf("green = %v, want [11, 41)", green)
	}
	if !red.Equal(List{sp(41, 100)}) {
		t.Errorf("red = %v, want [41, 100)", red)
	}
}

func TestStaticFluentRelativeComplement(t *testing.T) {
	// disagreement = busC \ scatsC, the sourceDisagreement pattern.
	tf := func(evType string) func(*Context, []Transition) []Transition {
		return func(ctx *Context, out []Transition) []Transition {
			for _, e := range ctx.Events(evType) {
				up, _ := e.Bool("up")
				if up {
					out = append(out, InitiateAt(e.Key, e.Time))
				} else {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
			}
			return out
		}
	}
	defs, err := NewBuilder().
		DeclareSDE("busEv", "scatsEv").
		Simple(SimpleFluent{Name: "busC", Inputs: []string{"busEv"}, Transitions: tf("busEv")}).
		Simple(SimpleFluent{Name: "scatsC", Inputs: []string{"scatsEv"}, Transitions: tf("scatsEv")}).
		Static(StaticFluent{
			Name:   "disagreement",
			Inputs: []string{"busC", "scatsC"},
			HoldsFor: func(ctx *Context) map[KV]IntervalList {
				out := make(map[KV]IntervalList)
				for kv, busI := range ctx.FluentInstances("busC") {
					scatsI := ctx.Intervals("scatsC", kv.Key)
					if d := interval.RelativeComplementAll(busI, []List{scatsI}); len(d) > 0 {
						out[kv] = d
					}
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 200})
	up := map[string]any{"up": true}
	down := map[string]any{"up": false}
	if err := e.Input(
		NewEvent("busEv", 10, "i1", up),
		NewEvent("busEv", 100, "i1", down),
		NewEvent("scatsEv", 40, "i1", up),
		NewEvent("scatsEv", 70, "i1", down),
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(199)
	if err != nil {
		t.Fatal(err)
	}
	// bus congestion [11, 101), scats congestion [41, 71):
	// disagreement = [11, 41) ∪ [71, 101).
	got := res.Intervals("disagreement", "i1")
	want := List{sp(11, 41), sp(71, 101)}
	if !got.Equal(want) {
		t.Errorf("disagreement = %v, want %v", got, want)
	}
}

func TestDerivedEventsAndFresh(t *testing.T) {
	// "surge": derived whenever two "tick" events of the same key
	// occur within 10 time points with increasing magnitude.
	defs, err := NewBuilder().
		DeclareSDE("tick").
		Event(EventRule{
			Name:   "surge",
			Inputs: []string{"tick"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, key := range ctx.EventKeys("tick") {
					evs := ctx.RowsForKey("tick", key).Slice()
					for i := 1; i < len(evs); i++ {
						prev, cur := evs[i-1], evs[i]
						pv, _ := prev.Float("v")
						cv, _ := cur.Float("v")
						if cur.Time-prev.Time < 10 && cv > pv {
							out = append(out, NewEvent("surge", cur.Time, key, nil))
						}
					}
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 100, Step: 50})
	if err := e.Input(
		NewEvent("tick", 10, "a", map[string]any{"v": 1.0}),
		NewEvent("tick", 15, "a", map[string]any{"v": 2.0}), // surge@15
		NewEvent("tick", 40, "a", map[string]any{"v": 1.0}), // no surge (v down)
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(50)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Derived["surge"]); n != 1 {
		t.Fatalf("derived surges = %d, want 1", n)
	}
	if len(res.Fresh) != 1 || res.Fresh[0].Time != 15 {
		t.Errorf("Fresh = %v, want the surge at 15", res.Fresh)
	}

	// Next query re-recognises the same surge (still in window) but
	// it is no longer fresh; a new one is.
	if err := e.Input(NewEvent("tick", 60, "a", map[string]any{"v": 5.0}),
		NewEvent("tick", 65, "a", map[string]any{"v": 6.0})); err != nil {
		t.Fatal(err)
	}
	res, err = e.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Derived["surge"]); n != 2 {
		t.Fatalf("derived surges = %d, want 2 (one re-recognised)", n)
	}
	if len(res.Fresh) != 1 || res.Fresh[0].Time != 65 {
		t.Errorf("Fresh = %v, want only the surge at 65", res.Fresh)
	}
	if res.Stats.DerivedEvents != 2 {
		t.Errorf("Stats.DerivedEvents = %d, want 2", res.Stats.DerivedEvents)
	}
}

func TestEventRuleFeedsSimpleFluent(t *testing.T) {
	// Derived events feeding a higher-stratum fluent: "alarm" holds
	// from the first derived "breach" until a "reset" SDE.
	defs, err := NewBuilder().
		DeclareSDE("reading", "reset").
		Event(EventRule{
			Name:   "breach",
			Inputs: []string{"reading"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, e := range ctx.Events("reading") {
					if v, _ := e.Float("v"); v > 100 {
						out = append(out, NewEvent("breach", e.Time, e.Key, nil))
					}
				}
				return out
			},
		}).
		Simple(SimpleFluent{
			Name:   "alarm",
			Inputs: []string{"breach", "reset"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				for _, e := range ctx.Events("breach") {
					out = append(out, InitiateAt(e.Key, e.Time))
				}
				for _, e := range ctx.Events("reset") {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	e, _ := NewEngine(defs, Options{WorkingMemory: 100})
	if err := e.Input(
		NewEvent("reading", 10, "boiler", map[string]any{"v": 120.0}),
		NewEvent("reset", 30, "boiler", nil),
	); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Intervals("alarm", "boiler").Equal(List{sp(11, 31)}) {
		t.Errorf("alarm = %v, want [11, 31)", res.Intervals("alarm", "boiler"))
	}
}

func TestPartitionedEngine(t *testing.T) {
	defs := onOffDefs(t)
	part, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, byEvent(func(e Event) int {
		if e.Key < "m" {
			return 0
		}
		return 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(part.engines) != 2 {
		t.Fatal("partition count")
	}
	if err := inputEvents(part,
		ev("on", 10, "alpha"), // partition 0
		ev("on", 20, "zeta"),  // partition 1
		ev("off", 50, "zeta"),
	); err != nil {
		t.Fatal(err)
	}
	results, err := part.Query(99)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatal("want two results")
	}
	merged := MergeResults(results)
	if !merged.Intervals("power", "alpha").Equal(List{sp(11, 100)}) {
		t.Errorf("alpha = %v", merged.Intervals("power", "alpha"))
	}
	if !merged.Intervals("power", "zeta").Equal(List{sp(21, 51)}) {
		t.Errorf("zeta = %v", merged.Intervals("power", "zeta"))
	}
	if merged.Stats.InputEvents != 3 {
		t.Errorf("merged InputEvents = %d, want 3", merged.Stats.InputEvents)
	}
}

func TestPartitionedErrors(t *testing.T) {
	defs := onOffDefs(t)
	if _, err := NewPartitioned(defs, Options{WorkingMemory: 10}, 0, byEvent(func(Event) int { return 0 })); err == nil {
		t.Error("zero partitions must error")
	}
	if _, err := NewPartitioned(defs, Options{WorkingMemory: 10}, 2, nil); err == nil {
		t.Error("nil assign must error")
	}
	p, err := NewPartitioned(defs, Options{WorkingMemory: 10}, 2, byEvent(func(Event) int { return 7 }))
	if err != nil {
		t.Fatal(err)
	}
	if err := inputEvents(p, ev("on", 1, "x")); err == nil {
		t.Error("out-of-range partition must error")
	}
}

func TestEventAttributeAccessors(t *testing.T) {
	e := NewEvent("move", 5, "bus1", map[string]any{
		"delay": int64(400),
		"lon":   -6.26,
		"line":  "r10",
		"cong":  true,
		"count": 7, // plain int
	})
	if v, ok := e.Int("delay"); !ok || v != 400 {
		t.Errorf("Int(delay) = %v, %v", v, ok)
	}
	if v, ok := e.Int("count"); !ok || v != 7 {
		t.Errorf("Int(count) = %v, %v", v, ok)
	}
	if v, ok := e.Float("lon"); !ok || v != -6.26 {
		t.Errorf("Float(lon) = %v, %v", v, ok)
	}
	if v, ok := e.Float("delay"); !ok || v != 400 {
		t.Errorf("Float(delay int conv) = %v, %v", v, ok)
	}
	if v, ok := e.Str("line"); !ok || v != "r10" {
		t.Errorf("Str(line) = %v, %v", v, ok)
	}
	if v, ok := e.Bool("cong"); !ok || !v {
		t.Errorf("Bool(cong) = %v, %v", v, ok)
	}
	if _, ok := e.Get("nope"); ok {
		t.Error("missing attribute must report !ok")
	}
	if _, ok := e.Float("line"); ok {
		t.Error("type mismatch must report !ok")
	}
	if got := e.String(); got != "move(bus1)@5" {
		t.Errorf("String = %q", got)
	}
}

func TestContextHoldsAtValue(t *testing.T) {
	ctx := newContext(100, sp(1, 101))
	ctx.setFluent("light", map[KV]List{
		{Key: "x", Value: "green"}: {sp(0, 50)},
		{Key: "x", Value: "red"}:   {sp(50, 100)},
	})
	if !ctx.HoldsAtValue("light", "x", "green", 20) || ctx.HoldsAtValue("light", "x", "red", 20) {
		t.Error("at 20 the light must be green and only green")
	}
	if !ctx.HoldsAtValue("light", "x", "red", 60) || ctx.HoldsAtValue("light", "x", "green", 60) {
		t.Error("at 60 the light must be red and only red")
	}
	if ctx.HoldsAtValue("light", "x", "red", 200) || ctx.HoldsAtValue("light", "x", "green", 200) {
		t.Error("outside any interval no value may hold")
	}
	if ctx.HoldsAtValue("light", "y", "green", 20) {
		t.Error("an unknown key must hold no value")
	}
}

func TestDescribe(t *testing.T) {
	tf := func(_ *Context, out []Transition) []Transition { return out }
	hf := func(*Context) map[KV]IntervalList { return nil }
	df := func(*Context) []Event { return nil }
	defs, err := NewBuilder().
		DeclareSDE("move", "traffic").
		Simple(SimpleFluent{Name: "congested", Inputs: []string{"traffic"}, Transitions: tf}).
		Static(StaticFluent{Name: "disagreement", Inputs: []string{"congested"}, HoldsFor: hf}).
		Event(EventRule{Name: "alarm", Inputs: []string{"disagreement"}, Derive: df}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	out := defs.Describe()
	for _, want := range []string{
		"SDE types: move, traffic",
		"simple fluent",
		"static fluent",
		"derived event",
		"stratum 1",
		"stratum 2",
		"stratum 3",
		"<- disagreement",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe missing %q:\n%s", want, out)
		}
	}
}

// strataOf groups the rule names by evaluation stratum, lowest first.
func strataOf(d *Definitions) [][]string {
	var out [][]string
	for _, r := range d.rules {
		for len(out) < r.stratum {
			out = append(out, nil)
		}
		out[r.stratum-1] = append(out[r.stratum-1], r.name)
	}
	return out
}
