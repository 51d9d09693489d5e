package rtec

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/interval"
)

// zoneDefs builds fluents keyed by a zone that aggregates many entities
// — the shape of busCongestion, where an area's transition points come
// from whichever buses pass it: a pointwise boolean fluent, a
// multi-valued one (initiating a value terminates the others, across
// entities) and one whose points depend on a later confirmation, so a
// late SDE retracts points already derived.
func zoneDefs(t *testing.T, partial bool) *Definitions {
	t.Helper()
	const la = 7
	zone := func(e Event) string { z, _ := e.Str("z"); return z }
	b := NewBuilder().DeclareSDE("a", "b")
	b.Simple(SimpleFluent{
		Name: "p", Inputs: []string{"a"}, Locality: Pointwise(), Partial: partial,
		Transitions: func(ctx *Context) []Transition {
			var out []Transition
			for _, e := range ctx.Events("a") {
				if v, _ := e.Int("v"); v > 2 {
					out = append(out, InitiateAt(zone(e), e.Time))
				} else {
					out = append(out, TerminateAt(zone(e), e.Time))
				}
			}
			return out
		},
	})
	b.Simple(SimpleFluent{
		Name: "multi", Inputs: []string{"a"}, Locality: Pointwise(), Partial: partial,
		Transitions: func(ctx *Context) []Transition {
			var out []Transition
			for _, e := range ctx.Events("a") {
				v, _ := e.Int("v")
				val := [...]string{"lo", "mid", "hi"}[v/2]
				out = append(out, Transition{Kind: Initiate, Key: zone(e), Value: val, Time: e.Time})
			}
			return out
		},
	})
	b.Simple(SimpleFluent{
		Name: "look", Inputs: []string{"a", "b"}, Locality: LocalWindow(0, la), Partial: partial,
		Transitions: func(ctx *Context) []Transition {
			var out []Transition
			for _, e := range ctx.Events("a") {
				confirmed := false
				for _, c := range ctx.EventsForKey("b", e.Key) {
					if dt := c.Time - e.Time; dt > 0 && dt <= la {
						confirmed = true
						break
					}
				}
				if confirmed {
					out = append(out, InitiateAt(zone(e), e.Time))
				} else {
					out = append(out, TerminateAt(zone(e), e.Time))
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

// zoneStream generates a delayed, out-of-order stream with re-delivered
// duplicates over nKeys entities reporting from three zones.
func zoneStream(rng *rand.Rand, horizon Time, n, nKeys int, maxDelay Time) []timedEvent {
	var out []timedEvent
	for i := 0; i < n; i++ {
		tm := Time(rng.Int63n(int64(horizon))) + 1
		te := timedEvent{arrival: tm + Time(rng.Int63n(int64(maxDelay+1)))}
		key := fmt.Sprintf("e%d", rng.Intn(nKeys))
		if rng.Intn(3) == 0 {
			te.ev = NewEvent("b", tm, key, nil)
		} else {
			te.ev = NewEvent("a", tm, key, map[string]any{
				"z": fmt.Sprintf("z%d", rng.Intn(3)), "v": int64(rng.Intn(6)),
			})
		}
		out = append(out, te)
		if rng.Intn(10) == 0 { // the mediator delivers it again, later
			te.arrival += Time(rng.Int63n(int64(maxDelay + 1)))
			out = append(out, te)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].arrival < out[j].arrival })
	return out
}

// TestPartialFoldEquivalence is the property behind the sharded
// busCongestion: entities split at random over K engines that run the
// fluents as partial, the engines' transition points concatenated and
// folded once with inertia state kept outside the engines, equals the
// one engine that sees everything — interval for interval, at every
// query, across window slides, late arrivals and retractions.
func TestPartialFoldEquivalence(t *testing.T) {
	const wm = Time(40)
	fluents := []string{"p", "multi", "look"}
	for _, k := range []int{1, 2, 3, 5} {
		for _, step := range []Time{wm, wm / 2, wm / 4} {
			for seed := int64(1); seed <= 4; seed++ {
				t.Run(fmt.Sprintf("k=%d/step=%d/seed=%d", k, step, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*100 + int64(k)))
					opts := Options{WorkingMemory: wm, Step: step}
					single, err := NewEngine(zoneDefs(t, false), opts)
					if err != nil {
						t.Fatal(err)
					}
					parts := make([]*Engine, k)
					for i := range parts {
						if parts[i], err = NewEngine(zoneDefs(t, true), opts); err != nil {
							t.Fatal(err)
						}
					}
					const nKeys = 9
					owner := make(map[string]int)
					for i := 0; i < nKeys; i++ {
						owner[fmt.Sprintf("e%d", i)] = rng.Intn(k)
					}
					prev := make(map[string]map[KV]List) // the folder's inertia state
					initiated := 0

					stream := zoneStream(rng, 10*wm, 500, nKeys, step+5)
					cursor := 0
					for q := wm; q <= 10*wm; q += step {
						for ; cursor < len(stream) && stream[cursor].arrival <= q; cursor++ {
							ev := stream[cursor].ev
							if err := single.Input(ev); err != nil {
								t.Fatal(err)
							}
							if err := parts[owner[ev.Key]].Input(ev); err != nil {
								t.Fatal(err)
							}
						}
						want, err := single.Query(q)
						if err != nil {
							t.Fatal(err)
						}
						for _, e := range parts {
							res, err := e.Query(q)
							if err != nil {
								t.Fatal(err)
							}
							if len(res.Fluents) != 0 || res.Stats.FluentPeriods != 0 {
								t.Fatalf("q=%d: partial engine built intervals: %v", q, res.Fluents)
							}
						}
						for _, name := range fluents {
							var trans []Transition
							for _, e := range parts {
								trans = append(trans, e.Transitions(name)...)
							}
							rng.Shuffle(len(trans), func(i, j int) { trans[i], trans[j] = trans[j], trans[i] })
							prev[name] = FoldTransitions(prev[name], want.Window, q, trans)
							got := make(map[KV]List)
							for kv, l := range prev[name] {
								if c := interval.Clip(l, want.Window); len(c) > 0 {
									got[kv] = c
								}
							}
							if !reflect.DeepEqual(got, want.Fluents[name]) {
								t.Fatalf("q=%d %s: folded %v, single engine %v", q, name, got, want.Fluents[name])
							}
							initiated += len(got)
						}
					}
					if initiated == 0 {
						t.Fatal("no fluent ever held: test is vacuous")
					}
				})
			}
		}
	}
}

// TestPartialFluentSurface pins the edges of the partial declaration:
// no rule may read one, and the accessor has nothing to hand out before
// a query or after a restore.
func TestPartialFluentSurface(t *testing.T) {
	b := NewBuilder().DeclareSDE("a")
	b.Simple(SimpleFluent{
		Name: "part", Inputs: []string{"a"}, Partial: true,
		Transitions: func(*Context) []Transition { return nil },
	})
	b.Static(StaticFluent{
		Name: "reader", Inputs: []string{"part"},
		HoldsFor: func(*Context) map[KV]IntervalList { return nil },
	})
	if _, err := b.Compile(); err == nil || !strings.Contains(err.Error(), "partial") {
		t.Fatalf("reading a partial fluent must not compile, got %v", err)
	}

	e, err := NewEngine(zoneDefs(t, true), Options{WorkingMemory: 40})
	if err != nil {
		t.Fatal(err)
	}
	if tr := e.Transitions("p"); tr != nil {
		t.Fatalf("transitions before any query: %v", tr)
	}
	if err := e.Input(NewEvent("a", 5, "e0", map[string]any{"z": "z0", "v": int64(5)})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(10); err != nil {
		t.Fatal(err)
	}
	if tr := e.Transitions("p"); len(tr) != 1 || tr[0] != InitiateAt("z0", 5) {
		t.Fatalf("transitions after query: %v", tr)
	}
	if tr := e.Transitions("nosuch"); tr != nil {
		t.Fatalf("transitions of an unknown name: %v", tr)
	}
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Prev) != 0 {
		t.Fatalf("partial fluents keep no inertia state, snapshot has %v", snap.Prev)
	}
	if err := e.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if tr := e.Transitions("p"); tr != nil {
		t.Fatalf("transitions right after restore: %v", tr)
	}
}
