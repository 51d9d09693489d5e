package rtec

import (
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

// internalDefs compiles an internal event rule, agree (one per move, on
// the move's key and time), read by the set's one output of a higher
// stratum, alarm (one per agree). read counts the moves agree's Derive
// was handed, so a caller can tell a spliced run from a full one; the
// engines of a Partitioned derive concurrently.
func internalDefs(t *testing.T, read *atomic.Int64) *Definitions {
	t.Helper()
	defs, err := NewBuilder().DeclareSDE("move").Event(EventRule{
		Name:     "agree",
		Inputs:   []string{"move"},
		Locality: Pointwise(),
		Derive: func(ctx *Context) []Event {
			var out []Event
			for _, m := range ctx.Events("move") {
				read.Add(1)
				out = append(out, NewEvent("agree", m.Time, m.Key, nil))
			}
			return out
		},
	}).Event(EventRule{
		Name:     "alarm",
		Inputs:   []string{"agree"},
		Locality: Pointwise(),
		Derive: func(ctx *Context) []Event {
			var out []Event
			for _, a := range ctx.Events("agree") {
				out = append(out, NewEvent("alarm", a.Time, a.Key, nil))
			}
			return out
		},
	}).Output("alarm").Compile()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// TestInternalEventsStayInTheEngine pins a set whose one output is
// alarm on two partitions, under full recompute and with overlap
// splicing at WM/Step = 4, late moves included: the internal agree
// reaches the rule reading it — one alarm per move in the window — but
// no Result.Derived, Result.Fresh, Reported or snapshot dedup set, and
// the engines' and the merged Stats.DerivedEvents count alarms only.
// Both modes give the same results.
func TestInternalEventsStayInTheEngine(t *testing.T) {
	byKey := byEvent(func(e Event) int {
		if e.Key == "a" {
			return 0
		}
		return 1
	})
	run := func(full bool) (merged []*Result, read int64) {
		var moves atomic.Int64
		p, err := NewPartitioned(internalDefs(t, &moves), Options{WorkingMemory: 40, Step: 10, ForceFullRecompute: full, RuleWorkers: 1}, 2, byKey)
		if err != nil {
			t.Fatal(err)
		}
		for q := Time(10); q <= 80; q += 10 {
			feed := []Event{ev("move", q-3, "a"), ev("move", q-7, "b")}
			if q >= 30 {
				feed = append(feed, ev("move", q-25, "a")) // late: inside the window, before the last query
			}
			if err := inputEvents(p, feed...); err != nil {
				t.Fatal(err)
			}
			results, err := p.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			alarms := 0
			for i, res := range results {
				e := p.Engine(i)
				if _, ok := res.Derived["agree"]; ok {
					t.Errorf("q=%d engine %d: agree in its Derived", q, i)
				}
				alarm := res.Derived["alarm"]
				if len(alarm) != res.Stats.InputEvents {
					t.Errorf("q=%d engine %d: %d alarms, want one per agree, one per move in the window (%d)", q, i, len(alarm), res.Stats.InputEvents)
				}
				for _, f := range res.Fresh {
					if f.Type == "agree" {
						t.Errorf("q=%d engine %d: agree %v reported fresh", q, i, f)
					}
				}
				for _, a := range alarm {
					if e.Reported("agree", a.Key, a.Time) {
						t.Errorf("q=%d engine %d: agree at %v filed in the dedup set", q, i, a)
					}
					if !e.Reported("alarm", a.Key, a.Time) {
						t.Errorf("q=%d engine %d: alarm %v not filed in the dedup set", q, i, a)
					}
				}
				snap, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(snap.Seen, func(s SeenEntry) bool { return s.Type == "agree" }) {
					t.Errorf("q=%d engine %d: snapshot holds agree identities", q, i)
				}
				if res.Stats.DerivedEvents != len(alarm) {
					t.Errorf("q=%d engine %d: DerivedEvents %d, want the %d alarms", q, i, res.Stats.DerivedEvents, len(alarm))
				}
				alarms += len(alarm)
			}
			m := MergeResults(results)
			if _, ok := m.Derived["agree"]; ok {
				t.Errorf("q=%d: merged Derived holds agree", q)
			}
			if len(m.Derived["alarm"]) != alarms || m.Stats.DerivedEvents != alarms {
				t.Errorf("q=%d: merged %d alarms, DerivedEvents %d, want the engines' %d", q, len(m.Derived["alarm"]), m.Stats.DerivedEvents, alarms)
			}
			merged = append(merged, m)
		}
		return merged, moves.Load()
	}
	full, fullRead := run(true)
	spliced, splicedRead := run(false)
	if splicedRead >= fullRead {
		t.Fatalf("agree read %d moves spliced and %d in full: the splice never engaged", splicedRead, fullRead)
	}
	for i := range full {
		f, s := full[i], spliced[i]
		if !reflect.DeepEqual(canonEvents(s.Derived["alarm"]), canonEvents(f.Derived["alarm"])) ||
			!reflect.DeepEqual(canonEvents(s.Fresh), canonEvents(f.Fresh)) || s.Stats.DerivedEvents != f.Stats.DerivedEvents {
			t.Errorf("q=%d: spliced and full results differ", f.Q)
		}
	}
}

// TestRestoreDropsInternalIdentities: a snapshot written while agree
// was an output still lists its dedup identities. Restore drops them,
// keeps the output types' and the next snapshot holds none.
func TestRestoreDropsInternalIdentities(t *testing.T) {
	var read atomic.Int64
	e, err := NewEngine(internalDefs(t, &read), Options{WorkingMemory: 40, Step: 10})
	if err != nil {
		t.Fatal(err)
	}
	old := &EngineSnapshot{LastQ: 40, Started: true, Seen: []SeenEntry{
		{Type: "agree", Key: "a", Time: 35},
		{Type: "alarm", Key: "a", Time: 35},
	}}
	var snap EngineSnapshot
	if err := snap.UnmarshalBinary(snapBytes(t, old)); err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&snap); err != nil {
		t.Fatal(err)
	}
	if e.Reported("agree", "a", 35) {
		t.Error("restored engine reports an internal identity")
	}
	if !e.Reported("alarm", "a", 35) {
		t.Error("restored engine lost a reported identity")
	}
	again, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := []SeenEntry{{Type: "alarm", Key: "a", Time: 35}}; !reflect.DeepEqual(again.Seen, want) {
		t.Errorf("next snapshot's dedup set = %v, want %v", again.Seen, want)
	}
}

// onOffFluent adds a boolean simple fluent named name, initiated by
// "on" and terminated by "off" events on their key.
func onOffFluent(b *Builder, name string) *Builder {
	return b.Simple(SimpleFluent{
		Name:   name,
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
	})
}

// TestRestoreDropsStaleFluentSections: a snapshot of a set with one more
// simple fluent than the restoring set holds that fluent's inertia.
// Restore drops the section, so a Snapshot taken right after it equals
// the snapshot of a run that never had the fluent.
func TestRestoreDropsStaleFluentSections(t *testing.T) {
	build := func(names ...string) *Engine {
		b := NewBuilder().DeclareSDE("on", "off")
		for _, n := range names {
			onOffFluent(b, n)
		}
		defs, err := b.Compile()
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(defs, Options{WorkingMemory: 40, Step: 10})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	run := func(e *Engine) *EngineSnapshot {
		if err := e.Input(ev("on", 5, "a"), ev("on", 12, "b"), ev("off", 18, "a")); err != nil {
			t.Fatal(err)
		}
		for q := Time(10); q <= 20; q += 10 {
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		s, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	withExtra := run(build("held", "extra"))
	if !slices.ContainsFunc(withExtra.Prev, func(f FluentSnapshot) bool { return f.Name == "extra" }) {
		t.Fatal("the snapshot holds no extra section: nothing to drop")
	}
	want := run(build("held"))

	e := build("held")
	if err := e.Restore(withExtra); err != nil {
		t.Fatal(err)
	}
	got, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot after Restore = %+v\nwant the run without the fluent %+v", got, want)
	}
}

// TestCompileOutputs: Compile refuses an output no rule defines, an SDE
// output, a partial fluent as an output and a derived type that is
// neither an output nor read; a set that declares no outputs reports
// every derived type, and a partial fluent nothing reads is read
// through Engine.Transitions.
func TestCompileOutputs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		build   func(b *Builder)
		err     string   // substring of Compile's error; "" compiles
		outputs []string // the compiled set's outputs
	}{
		{"unknown output", func(b *Builder) { b.Output("held", "missing") }, `output "missing" is not defined`, nil},
		{"SDE output", func(b *Builder) { b.Output("held", "on") }, `output "on" is an SDE type`, nil},
		{"partial output", func(b *Builder) {
			b.Simple(SimpleFluent{Name: "part", Inputs: []string{"on"}, Partial: true,
				Transitions: func(_ *Context, out []Transition) []Transition { return out }})
			b.Output("held", "part")
		}, `output "part" is a partial fluent`, nil},
		{"unread internal type", func(b *Builder) {
			onOffFluent(b, "unread")
			b.Output("held")
		}, `"unread" is neither an output nor read`, nil},
		{"no declaration", func(b *Builder) { onOffFluent(b, "other") }, "", []string{"held", "other", "watch"}},
		{"read internal type", func(b *Builder) { b.Output("watch") }, "", []string{"watch"}},
		{"partial fluent exempt", func(b *Builder) {
			b.Simple(SimpleFluent{Name: "part", Inputs: []string{"on"}, Partial: true,
				Transitions: func(_ *Context, out []Transition) []Transition { return out }})
			b.Output("watch")
		}, "", []string{"watch"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder().DeclareSDE("on", "off")
			onOffFluent(b, "held")
			b.Static(StaticFluent{Name: "watch", Inputs: []string{"held"},
				HoldsFor: func(ctx *Context) map[KV]IntervalList { return ctx.FluentInstances("held") }})
			tc.build(b)
			defs, err := b.Compile()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Compile error %v, want one containing %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var outputs []string
			for name := range defs.outputs {
				outputs = append(outputs, name)
			}
			slices.Sort(outputs)
			if !slices.Equal(outputs, tc.outputs) {
				t.Errorf("outputs %v, want %v", outputs, tc.outputs)
			}
			e, err := NewEngine(defs, Options{WorkingMemory: 40, Step: 10})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Input(ev("on", 5, "a")); err != nil {
				t.Fatal(err)
			}
			res, err := e.Query(10)
			if err != nil {
				t.Fatal(err)
			}
			var reported []string
			for name := range res.Fluents {
				reported = append(reported, name)
			}
			slices.Sort(reported)
			if !slices.Equal(reported, tc.outputs) {
				t.Errorf("Result.Fluents holds %v, want the outputs %v", reported, tc.outputs)
			}
		})
	}
}
