package rtec

import (
	"cmp"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// foldOracle is holdsFor by definition, one time point at a time and
// independent of any interval code: an instance holds at the window
// start if it was initiated at windowStart−1, or held and was not
// terminated then; it holds at T+1 if initiated at T, or held at T and
// was not terminated at T — an initiation of another value of its key
// terminates it too. If it holds at q+1 it extends to MaxTime.
func foldOracle(prev map[KV]List, window Span, q Time, trans []Transition) map[KV]List {
	type at struct {
		kv KV
		t  Time
	}
	ini, ter := map[at]bool{}, map[at]bool{}
	values := map[string][]string{}
	insts := map[KV]bool{}
	for _, tr := range trans {
		if tr.Time < window.Start-1 || tr.Time > q {
			continue
		}
		kv := KV{Key: tr.Key, Value: cmp.Or(tr.Value, TrueValue)}
		if !insts[kv] {
			insts[kv] = true
			values[kv.Key] = append(values[kv.Key], kv.Value)
		}
		if tr.Kind == Initiate {
			ini[at{kv, tr.Time}] = true
		} else {
			ter[at{kv, tr.Time}] = true
		}
	}
	for kv, l := range prev {
		if l.Contains(window.Start) {
			insts[kv] = true
		}
	}
	out := map[KV]List{}
	for kv := range insts {
		terAt := func(t Time) bool {
			for _, v := range values[kv.Key] {
				if v != kv.Value && ini[at{KV{Key: kv.Key, Value: v}, t}] {
					return true
				}
			}
			return ter[at{kv, t}]
		}
		ws := window.Start
		holds := ini[at{kv, ws - 1}] || (prev[kv].Contains(ws) && !terAt(ws-1))
		var l List
		for t := ws; ; t++ {
			if holds {
				end := t + 1
				if t > q {
					end = MaxTime
				}
				if n := len(l); n > 0 && l[n-1].End == t {
					l[n-1].End = end
				} else {
					l = append(l, Span{Start: t, End: end})
				}
			}
			if t > q {
				break
			}
			holds = ini[at{kv, t}] || (holds && !terAt(t))
		}
		if len(l) > 0 {
			out[kv] = l
		}
	}
	return out
}

// FuzzFoldTransitions holds FoldTransitions to foldOracle on random
// keys, values (the empty value included, which means TrueValue),
// points around both window edges and inertia seeds — and to its
// promise that only the set of points matters: the same points split
// into parts, shuffled and partly duplicated fold the same. Every list
// must be maximal and capped at its own length, so that appending to
// one cannot overwrite a neighbour in the arena.
//
// Input: byte 0 places the window, byte 1 sizes it, then two bytes per
// record — a point, or (about one record in sixteen) a prev list.
func FuzzFoldTransitions(f *testing.F) {
	f.Add([]byte{3, 9, 0, 0, 1, 4, 12, 8})
	f.Add([]byte{0, 4, 3, 1, 15, 2, 4, 0, 240, 17})
	f.Add([]byte{5, 20, 6, 2, 18, 2, 30, 5, 242, 3, 1, 25, 13, 26})
	f.Add([]byte{1, 1, 12, 0, 0, 2, 24, 2, 245, 0, 246, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ws := Time(data[0]%8)*10 - 20
		wm := Time(1 + data[1]%24)
		q := ws + wm - 1
		window := Span{Start: ws, End: q + 1}
		keys := [...]string{"k0", "k1", "k2"}
		values := [...]string{"", TrueValue, "lo", "hi"}
		prev := map[KV]List{}
		var trans []Transition
		for rec := data[2:]; len(rec) >= 2; rec = rec[2:] {
			b0, b1 := rec[0], rec[1]
			kv := KV{Key: keys[b0%3], Value: values[b0/3%4]}
			if b0 >= 240 {
				kv.Value = cmp.Or(kv.Value, TrueValue) // a fold's output is value-defaulted
				start := ws - 4 + Time(b1%6)
				prev[kv] = List{{Start: start, End: start + 1 + Time(b1/6%5)}}
				continue
			}
			tr := Transition{Key: kv.Key, Value: kv.Value, Time: ws - 3 + Time(b1)%(wm+6), Kind: Terminate}
			if b0/12%2 == 0 {
				tr.Kind = Initiate
			}
			trans = append(trans, tr)
		}

		want := foldOracle(prev, window, q, trans)
		check := func(how string, got map[KV]List) {
			t.Helper()
			if !maps.EqualFunc(got, want, slices.Equal) {
				t.Fatalf("%s: FoldTransitions = %v, oracle %v (prev %v, window %v, points %v)", how, got, want, prev, window, trans)
			}
			for kv, l := range got {
				if !l.Valid() || cap(l) != len(l) {
					t.Fatalf("%s: %v = %v (cap %d): not a capped maximal list", how, kv, l, cap(l))
				}
			}
		}
		check("one part", FoldTransitions(prev, window, q, trans))

		rng := rand.New(rand.NewSource(int64(len(data))*131 + int64(data[0])<<8 + int64(data[1])))
		mixed := slices.Clone(trans)
		for i := range trans {
			if rng.Intn(4) == 0 {
				mixed = append(mixed, trans[i])
			}
		}
		rng.Shuffle(len(mixed), func(i, j int) { mixed[i], mixed[j] = mixed[j], mixed[i] })
		var parts [][]Transition
		for rest := mixed; len(rest) > 0; {
			n := 1 + rng.Intn(len(rest))
			parts, rest = append(parts, rest[:n]), rest[n:]
		}
		check(fmt.Sprintf("%d shuffled parts with duplicates", len(parts)), FoldTransitions(prev, window, q, parts...))
	})
}

// TestAllocBudget_Fold: FoldTransitions allocates a constant number of
// objects per call — the interning map, the group, point and arena
// slices and the result map — whatever the number of fluent instances,
// where folding each instance on its own cost about twelve per instance
// (120 000 here). The headroom is the two maps' tables: Go's map keeps
// one per ~900 entries, about 30 allocations for a 10 000-entry map.
func TestAllocBudget_Fold(t *testing.T) {
	measure := func(n int) float64 {
		const wm = Time(100)
		window := Span{Start: 1, End: wm + 1}
		// The steady state: every instance held somewhere in the last
		// window, half of them still at this one's start.
		held, ended := List{{Start: -5, End: MaxTime}}, List{{Start: -5, End: 0}}
		prev := make(map[KV]List, n)
		var trans []Transition
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%d", i)
			prev[KV{Key: key, Value: TrueValue}] = held
			if i%2 == 0 {
				prev[KV{Key: key, Value: TrueValue}] = ended
			}
			t0 := Time(i%50) + 1
			trans = append(trans, InitiateAt(key, t0), TerminateAt(key, t0+20), InitiateAt(key, t0+30))
		}
		return testing.AllocsPerRun(5, func() { FoldTransitions(prev, window, wm, trans) })
	}
	small, large := measure(10), measure(10000)
	const headroom = 72
	t.Logf("FoldTransitions: %.0f allocs for 10 instances, %.0f for 10 000", small, large)
	if large > small+headroom {
		t.Errorf("FoldTransitions allocates %.0f objects for 10 000 instances and %.0f for 10: the cost grows with the instances (headroom %d)", large, small, headroom)
	}
}
