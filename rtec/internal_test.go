package rtec

import (
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
)

// internalDefs compiles an internal event rule, agree (one per move, on
// the move's key and time), read by a reported one of a higher stratum,
// alarm (one per agree). read counts the moves agree's Derive was
// handed, so a caller can tell a spliced run from a full one; the
// engines of a Partitioned derive concurrently.
func internalDefs(t *testing.T, read *atomic.Int64) *Definitions {
	t.Helper()
	defs, err := NewBuilder().DeclareSDE("move").Event(EventRule{
		Name:     "agree",
		Inputs:   []string{"move"},
		Locality: Pointwise(),
		Internal: true,
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
	}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// identities renders events as (key, time) pairs, in order.
func identities(evs []Event) [][2]any {
	out := make([][2]any, len(evs))
	for i, e := range evs {
		out[i] = [2]any{e.Key, e.Time}
	}
	return out
}

// TestInternalEventsStayInTheEngine pins EventRule.Internal on two
// partitions, under full recompute and with overlap splicing at
// WM/Step = 4, late moves included: an internal event is in its
// engine's Result.Derived and visible to the rule reading it, but never
// in Result.Fresh, never Reported and never in a snapshot's dedup set;
// MergeResults leaves it out of the merged Derived and counts it in
// Stats.DerivedEvents. Both modes give the same results.
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
			derived, agrees := 0, 0
			for i, res := range results {
				e := p.Engine(i)
				agree := res.Derived["agree"]
				if len(agree) == 0 {
					t.Fatalf("q=%d engine %d: no agree in its own Derived", q, i)
				}
				if got, want := identities(res.Derived["alarm"]), identities(agree); !reflect.DeepEqual(got, want) {
					t.Errorf("q=%d engine %d: alarm %v, want one per agree %v", q, i, got, want)
				}
				for _, f := range res.Fresh {
					if f.Type == "agree" {
						t.Errorf("q=%d engine %d: agree %v reported fresh", q, i, f)
					}
				}
				for _, a := range agree {
					if e.Reported("agree", a.Key, a.Time) {
						t.Errorf("q=%d engine %d: agree %v filed in the dedup set", q, i, a)
					}
					if !e.Reported("alarm", a.Key, a.Time) {
						t.Errorf("q=%d engine %d: alarm at %v not filed in the dedup set", q, i, a)
					}
				}
				snap, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if slices.ContainsFunc(snap.Seen, func(s SeenEntry) bool { return s.Type == "agree" }) {
					t.Errorf("q=%d engine %d: snapshot holds agree identities", q, i)
				}
				if res.Stats.DerivedEvents != len(agree)+len(res.Derived["alarm"]) {
					t.Errorf("q=%d engine %d: DerivedEvents %d, want %d", q, i, res.Stats.DerivedEvents, len(agree)+len(res.Derived["alarm"]))
				}
				derived += res.Stats.DerivedEvents
				agrees += len(agree)
			}
			m := MergeResults(results)
			if _, ok := m.Derived["agree"]; ok {
				t.Errorf("q=%d: merged Derived holds agree", q)
			}
			if len(m.Derived["alarm"]) != agrees {
				t.Errorf("q=%d: merged %d alarms, want %d", q, len(m.Derived["alarm"]), agrees)
			}
			if m.Stats.DerivedEvents != derived {
				t.Errorf("q=%d: merged DerivedEvents %d, want the engines' %d", q, m.Stats.DerivedEvents, derived)
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

// TestRestoreDropsInternalIdentities: a snapshot written before a type
// was declared Internal still lists its dedup identities. Restore drops
// them, keeps the reported types' and the next snapshot holds none.
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
