package rtec

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/interval"
)

// specRules draws a random stratified rule set over SDE types a and b
// (entity key, int attribute v, zone attribute z) from the combinators
// the Dublin library uses: threshold, multi-valued and
// confirmed-by-a-later-event simple fluents, static unions,
// intersections and relative complements of boolean fluents, event
// rules gated by a fluent, and an event rule pairing derived events.
// Each rule declares a locality it has, or none. Every rule nothing
// reads is an output, and so is each read one by a coin. The zone
// fluent — keyed by zone, so many entities feed one instance, like
// busCongestion — is always an output; it is the one the router mode
// splits: called with parts set, the returned builder adds only the SDE
// declarations and the zone fluent, partial.
func specRules(rng *rand.Rand) func(b *Builder, parts bool) {
	var adds []func(b *Builder)
	var bools, events, names []string
	read := map[string]bool{}
	local := func(l Locality) Locality {
		if rng.Intn(4) == 0 {
			return Locality{} // non-local: always recomputed in full
		}
		return l
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		name, typ := fmt.Sprintf("f%d", i), []string{"a", "b"}[rng.Intn(2)]
		names = append(names, name)
		switch rng.Intn(4) {
		case 0, 1:
			on, off, loc := int64(rng.Intn(10)), int64(rng.Intn(10)), local(Pointwise())
			bools = append(bools, name)
			adds = append(adds, func(b *Builder) {
				b.Simple(SimpleFluent{Name: name, Inputs: []string{typ}, Locality: loc,
					Transitions: specThreshold(typ, nil, on, off)})
			})
		case 2:
			cut, loc := int64(rng.Intn(10)), local(Pointwise())
			adds = append(adds, func(b *Builder) {
				b.Simple(SimpleFluent{Name: name, Inputs: []string{typ}, Locality: loc,
					Transitions: func(ctx *Context, out []Transition) []Transition {
						rows := ctx.Rows(typ)
						for j := 0; j < rows.Len(); j++ {
							v, _ := rows.At(j).Int("v")
							val := map[bool]string{true: "hi", false: "lo"}[v >= cut]
							out = append(out, Transition{Kind: Initiate, Key: rows.KeyAt(j), Value: val, Time: rows.TimeAt(j)})
						}
						return out
					}})
			})
		default:
			la := Time(1 + rng.Intn(6))
			loc := local(LocalWindow(0, la))
			bools = append(bools, name)
			adds = append(adds, func(b *Builder) {
				b.Simple(SimpleFluent{Name: name, Inputs: []string{"a", "b"}, Locality: loc,
					Transitions: func(ctx *Context, out []Transition) []Transition {
						rows := ctx.Rows("a")
						for j := 0; j < rows.Len(); j++ {
							t, key, confirmed := rows.TimeAt(j), rows.KeyAt(j), false
							later := ctx.RowsForKey("b", key)
							for k := 0; k < later.Len(); k++ {
								if dt := later.TimeAt(k) - t; dt > 0 && dt <= la {
									confirmed = true
								}
							}
							if confirmed {
								out = append(out, InitiateAt(key, t))
							} else {
								out = append(out, TerminateAt(key, t))
							}
						}
						return out
					}})
			})
		}
	}
	for i, n := 0, rng.Intn(3); i < n && len(bools) > 0; i++ {
		name, x, y, op := fmt.Sprintf("s%d", i), bools[rng.Intn(len(bools))], bools[rng.Intn(len(bools))], rng.Intn(3)
		read[x], read[y] = true, true
		bools, names = append(bools, name), append(names, name)
		adds = append(adds, func(b *Builder) {
			b.Static(StaticFluent{Name: name, Inputs: []string{x, y}, HoldsFor: func(ctx *Context) map[KV]List {
				out := map[KV]List{}
				for _, src := range []string{x, y} {
					for kv := range ctx.FluentInstances(src) {
						lx, ly := ctx.Intervals(x, kv.Key), ctx.Intervals(y, kv.Key)
						out[KV{Key: kv.Key}] = [...]List{interval.Union(lx, ly), interval.Intersect(lx, ly), interval.RelativeComplement(lx, ly)}[op]
					}
				}
				return out
			}})
		})
	}
	for i, n := 0, rng.Intn(3); i < n && len(bools) > 0; i++ {
		name, typ, gate := fmt.Sprintf("e%d", i), []string{"a", "b"}[rng.Intn(2)], bools[rng.Intn(len(bools))]
		least, negate, loc := int64(rng.Intn(10)), rng.Intn(3) == 0, local(Pointwise())
		read[gate] = true
		events, names = append(events, name), append(names, name)
		adds = append(adds, func(b *Builder) {
			b.Event(EventRule{Name: name, Inputs: []string{typ, gate}, Locality: loc,
				Derive: func(ctx *Context) []Event {
					var out []Event
					rows := ctx.Rows(typ)
					for j := 0; j < rows.Len(); j++ {
						t, key := rows.TimeAt(j), rows.KeyAt(j)
						if v, _ := rows.At(j).Int("v"); v >= least && ctx.HoldsAtValue(gate, key, TrueValue, t) != negate {
							out = append(out, NewEvent(name, t, key, map[string]any{"v": v}))
						}
					}
					return out
				}})
		})
	}
	if len(events) > 0 && rng.Intn(2) == 0 {
		in, lb := events[rng.Intn(len(events))], Time(2+rng.Intn(5))
		loc := local(LocalWindow(lb, 0))
		read[in] = true
		names = append(names, "pair")
		adds = append(adds, func(b *Builder) {
			b.Event(EventRule{Name: "pair", Inputs: []string{in}, Locality: loc,
				Derive: func(ctx *Context) []Event {
					var out []Event
					for _, key := range ctx.EventKeys(in) {
						evs := ctx.RowsForKey(in, key).Slice()
						for j := 1; j < len(evs); j++ {
							if dt := evs[j].Time - evs[j-1].Time; dt > 0 && dt < lb {
								out = append(out, NewEvent("pair", evs[j].Time, key, nil))
							}
						}
					}
					return out
				}})
		})
	}
	outputs := []string{"zone"}
	for _, name := range names {
		if !read[name] || rng.Intn(2) == 0 {
			outputs = append(outputs, name)
		}
	}
	on, off := int64(rng.Intn(10)), int64(rng.Intn(10))
	zone := func(e Event) string { z, _ := e.Str("z"); return z }
	return func(b *Builder, parts bool) {
		b.DeclareSDE("a", "b")
		b.Simple(SimpleFluent{Name: "zone", Inputs: []string{"a"}, Locality: Pointwise(), Partial: parts,
			Transitions: specThreshold("a", zone, on, off)})
		if parts {
			return
		}
		for _, add := range adds {
			add(b)
		}
		b.Output(outputs...)
	}
}

// specThreshold initiates key(e)'s fluent where an SDE's v reaches on
// and terminates it where v falls below off; a nil key keys it by the
// SDE's own.
func specThreshold(typ string, key func(Event) string, on, off int64) func(*Context, []Transition) []Transition {
	return func(ctx *Context, out []Transition) []Transition {
		rows := ctx.Rows(typ)
		for j := 0; j < rows.Len(); j++ {
			ev := rows.At(j)
			k := ev.Key
			if key != nil {
				k = key(ev)
			}
			v, _ := ev.Int("v")
			if v >= on {
				out = append(out, InitiateAt(k, ev.Time))
			}
			if v < off {
				out = append(out, TerminateAt(k, ev.Time))
			}
		}
		return out
	}
}

// specStream draws a stream over five entities in three zones:
// occurrence times over [1, horizon], arrivals delayed up to maxDelay
// (a few early), one SDE in ten delivered again later, listed in
// arrival order.
func specStream(rng *rand.Rand, horizon Time, n int, maxDelay Time) []specSDE {
	var out []specSDE
	for i := 0; i < n; i++ {
		t := 1 + Time(rng.Int63n(int64(horizon)))
		ev := NewEvent([]string{"a", "b"}[rng.Intn(2)], t, fmt.Sprintf("e%d", rng.Intn(5)),
			map[string]any{"v": int64(rng.Intn(10)), "z": fmt.Sprintf("z%d", rng.Intn(3))})
		sde := specSDE{Ev: ev, Arrival: t + max(-2, Time(rng.Int63n(int64(maxDelay+3)))-2)}
		out = append(out, sde)
		if rng.Intn(10) == 0 {
			sde.Arrival += Time(rng.Int63n(int64(maxDelay + 1)))
			out = append(out, sde)
		}
	}
	slices.SortStableFunc(out, func(a, b specSDE) int { return int(a.Arrival - b.Arrival) })
	return out
}

// specBlock columnarizes deliveries of one type, in order, the way a
// transport batch carries them.
func specBlock(sdes []specSDE) *Block {
	blk := &Block{Type: sdes[0].Ev.Type, Cols: []BCol{{Name: "v", Kind: ColInt}, {Name: "z", Kind: ColStr}}}
	dict := map[string]uint32{}
	for _, sde := range sdes {
		blk.Times = append(blk.Times, int64(sde.Ev.Time))
		blk.Keys = append(blk.Keys, sde.Ev.Key)
		v, _ := sde.Ev.Int("v")
		z, _ := sde.Ev.Str("z")
		if _, ok := dict[z]; !ok {
			dict[z] = uint32(len(blk.Cols[1].Dict))
			blk.Cols[1].Dict = append(blk.Cols[1].Dict, z)
		}
		blk.Cols[0].I = append(blk.Cols[0].I, v)
		blk.Cols[1].SIdx = append(blk.Cols[1].SIdx, dict[z])
	}
	return blk
}

// FuzzEngineVsSpec holds the engine to the spec (spec_test.go) on
// random rule sets (specRules) and random delayed, duplicated and
// out-of-order streams (specStream), at WM/Step ∈ {1, 2, 4}: Fluents,
// Derived and Fresh must be the spec's at every query, interval for
// interval. The engine files each run of one type's deliveries
// through Input or InputBlockRows, by a coin. Two more modes ride along
// on every input:
//
//   - router: the zone fluent, partial, is split over K ∈ {1, 2, 3}
//     engines by a random row router (Fanout); FoldTransitions of their
//     points, with its own inertia, must be the spec's one-engine
//     answer;
//   - recovery: at a random query the engine is snapshotted, encoded,
//     decoded and restored into a fresh engine, which is handed the
//     window's SDEs again and carries on in its place.
//
// The input only seeds the draw: every input is one whole scenario.
func FuzzEngineVsSpec(f *testing.F) {
	for seed := 'a'; seed <= 'l'; seed++ {
		f.Add([]byte{byte(seed)})
	}
	// A router case: one part splices a termination at windowStart−1
	// that another part, recomputing in full, has lost.
	f.Add([]byte("\xde2@7\xa4\x14"))
	f.Fuzz(func(t *testing.T, data []byte) {
		h := fnv.New64a()
		h.Write(data)
		rng := rand.New(rand.NewSource(int64(h.Sum64())))
		add := specRules(rng)
		wm := Time(4 * (2 + rng.Intn(4)))
		step := wm / Time([]int{1, 2, 4}[rng.Intn(3)])
		horizon := 8 * wm
		stream := specStream(rng, horizon, int(horizon)*(1+rng.Intn(3))/2, step+Time(rng.Intn(int(wm))))
		k, restoreAt := 1+rng.Intn(3), rng.Intn(int(horizon/step))
		label := fmt.Sprintf("wm=%d step=%d k=%d restore@%d", wm, step, k, restoreAt)

		compile := func(parts bool) *Definitions {
			b := NewBuilder()
			add(b, parts)
			defs, err := b.Compile()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			return defs
		}
		defs, partDefs := compile(false), compile(true)
		opts := Options{WorkingMemory: wm, RuleWorkers: 1 + rng.Intn(2)}
		eng, err := NewEngine(defs, opts)
		if err != nil {
			t.Fatal(err)
		}
		parts := make([]*Engine, k)
		for i := range parts {
			if parts[i], err = NewEngine(partDefs, opts); err != nil {
				t.Fatal(err)
			}
		}
		fan := NewFanout(parts)
		route := rand.New(rand.NewSource(rng.Int63()))
		byRow := func(*Block) func(int) int { return func(int) int { return route.Intn(k) } }
		sp := newSpec(defs, wm)
		var zonePrev map[KV]List

		fed := 0
		for qi, q := 0, wm; q <= horizon; qi, q = qi+1, q+step {
			lo := fed
			for fed < len(stream) && stream[fed].Arrival <= q {
				fed++
			}
			var cut []BlockRun
			for i := lo; i < fed; {
				j := i + 1
				for j < fed && stream[j].Ev.Type == stream[i].Ev.Type {
					j++
				}
				blk := specBlock(stream[i:j])
				cut = append(cut, BlockRun{Block: blk})
				if rng.Intn(2) == 0 {
					err = eng.InputBlockRows(blk, nil)
				} else {
					for _, sde := range stream[i:j] {
						if err = eng.Input(sde.Ev); err != nil {
							break
						}
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				i = j
			}
			if _, err := fan.InputCut(cut, byRow); err != nil {
				t.Fatal(err)
			}

			got, err := eng.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want := sp.Query(stream[:fed], q)
			if d := specDiff(got, want); d != "" {
				t.Fatalf("%s q=%d: engine differs from the spec, %s\nrules:\n%s", label, q, d, defs.Describe())
			}

			var points [][]Transition
			for _, e := range parts {
				if _, err := e.Query(q); err != nil {
					t.Fatal(err)
				}
				points = append(points, e.Transitions("zone"))
			}
			zonePrev = FoldTransitions(zonePrev, want.Window, q, points...)
			folded := &Result{Fluents: map[string]map[KV]List{"zone": specClip(zonePrev, want.Window)}}
			if d := specDiff(folded, &Result{Fluents: map[string]map[KV]List{"zone": want.Fluents["zone"]}}); d != "" {
				t.Fatalf("%s q=%d: zone folded from %d engines differs from the spec, %s", label, q, k, d)
			}

			if qi == restoreAt {
				eng = specRecover(t, eng, defs, opts, stream[:fed], q)
			}
		}
	})
}

// specRecover snapshots e after its query at q, takes the snapshot
// through its binary form into a fresh engine and re-inputs the SDEs a
// recovery re-reads: those that arrived by q and occurred after q−WM,
// in their order.
func specRecover(t *testing.T, e *Engine, defs *Definitions, opts Options, fed []specSDE, q Time) *Engine {
	t.Helper()
	snap, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	wire, err := snap.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineSnapshot
	if err := back.UnmarshalBinary(wire); err != nil {
		t.Fatal(err)
	}
	r, err := NewEngine(defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(&back); err != nil {
		t.Fatal(err)
	}
	for _, sde := range fed {
		if sde.Ev.Time > q-opts.WorkingMemory {
			if err := r.Input(sde.Ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	return r
}
