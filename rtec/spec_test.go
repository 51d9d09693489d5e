package rtec

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/insight-dublin/insight/interval"
)

// The reference semantics of windowed RTEC, written to be read rather
// than to be fast: what a Query at q must answer, by definition, for a
// stream of SDEs that arrive when they arrive. The engine is judged
// against it (FuzzEngineVsSpec, and the Dublin rule library in
// rulelib_test.go). The spec shares no code with the engine's working
// memory, overlap cache, splice or fold: it calls no Engine method and
// no store code. Per query q it
//
//   - takes the SDEs that arrived by q and occurred in (q−WM, q], in
//     (time, arrival) order, and files them into a fresh Context as if
//     they were derived events (newContext/addEvents), so no store is
//     involved;
//   - evaluates the strata in order, every rule over the whole window;
//   - folds each simple fluent one time point at a time under inertia
//     (foldOracle, fold_test.go), seeded at the window start by its own
//     previous query's answer;
//   - reports an output event Fresh exactly when no earlier query
//     derived its identity (type, key, time).

// specSDE is one delivered SDE: the event and the time it arrived.
// Deliveries are listed in arrival order; equal arrivals keep their
// order, which is the order the engine files them in.
type specSDE struct {
	Ev      Event
	Arrival Time
}

// spec is the reference interpreter for one definition set and one
// working memory.
type spec struct {
	defs *Definitions
	wm   Time
	// prev holds each simple fluent's un-clipped intervals at the last
	// query: the inertia seed at the next window start.
	prev map[string]map[KV]List
	// derived holds every output identity any query derived.
	derived map[SeenEntry]bool
}

func newSpec(defs *Definitions, wm Time) *spec {
	return &spec{defs: defs, wm: wm, prev: map[string]map[KV]List{}, derived: map[SeenEntry]bool{}}
}

// Query answers at q over every delivery so far. Query times must
// increase, as the engine's must.
func (s *spec) Query(sdes []specSDE, q Time) *Result {
	window := Span{Start: q - s.wm + 1, End: q + 1}
	ctx := newContext(q, window)
	byType := map[string][]Event{}
	for _, sde := range sdes {
		if sde.Arrival <= q && window.Contains(sde.Ev.Time) {
			byType[sde.Ev.Type] = append(byType[sde.Ev.Type], sde.Ev)
		}
	}
	for typ, evs := range byType {
		slices.SortStableFunc(evs, func(a, b Event) int { return cmp.Compare(a.Time, b.Time) })
		ctx.addEvents(typ, evs)
	}

	res := &Result{Q: q, Window: window, Fluents: map[string]map[KV]List{}, Derived: map[string][]Event{}}
	prev := map[string]map[KV]List{}
	rules := s.defs.rules
	for lo := 0; lo < len(rules); {
		hi := lo + 1
		for hi < len(rules) && rules[hi].stratum == rules[lo].stratum {
			hi++
		}
		// Every rule of a stratum reads the same context; what they
		// derive is filed once the stratum is done.
		fluents := map[string]map[KV]List{}
		events := map[string][]Event{}
		for i := lo; i < hi; i++ {
			r := &rules[i]
			switch r.kind {
			case kindSimple:
				full := foldOracle(s.prev[r.name], window, q, r.simple.Transitions(ctx, nil))
				fluents[r.name], prev[r.name] = full, full
			case kindStatic:
				fluents[r.name] = specStatic(r.static.HoldsFor(ctx))
			case kindEvent:
				var evs []Event
				for _, ev := range r.event.Derive(ctx) {
					if window.Contains(ev.Time) {
						ev.Type = r.name
						evs = append(evs, ev)
					}
				}
				slices.SortStableFunc(evs, specIdentity)
				events[r.name] = evs
			}
		}
		for name, insts := range fluents {
			ctx.setFluent(name, insts)
			if s.defs.outputs[name] {
				res.Fluents[name] = specClip(insts, window)
			}
		}
		for name, evs := range events {
			ctx.addEvents(name, evs)
			if s.defs.outputs[name] {
				res.Derived[name] = evs
			}
		}
		lo = hi
	}
	s.prev = prev

	// Fresh: the identities no earlier query derived. Derivations of
	// one identity that differ in their attributes leave one survivor,
	// the smallest canonical rendering, the first of equals.
	var all []Event
	for _, evs := range res.Derived {
		all = append(all, evs...)
	}
	slices.SortStableFunc(all, specIdentity)
	var seenNow []SeenEntry
	for _, ev := range all {
		id := SeenEntry{Type: ev.Type, Key: ev.Key, Time: ev.Time}
		if s.derived[id] {
			continue
		}
		if n := len(res.Fresh); n > 0 && specIdentity(res.Fresh[n-1], ev) == 0 {
			if CanonicalAttrs(ev) < CanonicalAttrs(res.Fresh[n-1]) {
				res.Fresh[n-1] = ev
			}
			continue
		}
		res.Fresh = append(res.Fresh, ev)
		seenNow = append(seenNow, id)
	}
	for _, id := range seenNow {
		s.derived[id] = true
	}
	return res
}

// specIdentity orders events by (time, type, key).
func specIdentity(a, b Event) int {
	return cmp.Or(cmp.Compare(a.Time, b.Time), strings.Compare(a.Type, b.Type), strings.Compare(a.Key, b.Key))
}

// specStatic is a static fluent's answer as the engine must read it:
// the empty value means TrueValue, each list is the set of points it
// covers, and an instance that covers none is absent.
func specStatic(inst map[KV]List) map[KV]List {
	out := map[KV]List{}
	for kv, l := range inst {
		kv.Value = cmp.Or(kv.Value, TrueValue)
		if l = interval.Normalize(l); len(l) > 0 {
			out[kv] = l
		}
	}
	return out
}

// specClip restricts every instance to the window, dropping the
// instances left empty.
func specClip(full map[KV]List, window Span) map[KV]List {
	out := map[KV]List{}
	for kv, l := range full {
		if c := interval.Clip(l, window); len(c) > 0 {
			out[kv] = c
		}
	}
	return out
}

// specDiff renders where a result differs from the spec's answer, or
// returns "" when they agree: every output fluent's clipped intervals,
// every output event in order with its attributes, and the Fresh list.
// An absent entry and an empty one read the same.
func specDiff(got, want *Result) string {
	g, w := renderResult(got), renderResult(want)
	if g == w {
		return ""
	}
	gl, wl := strings.Split(g, "\n"), strings.Split(w, "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	at := func(l []string) string {
		if i < len(l) {
			return l[i]
		}
		return "(end)"
	}
	return fmt.Sprintf("first difference at line %d:\n engine: %s\n spec:   %s", i+1, at(gl), at(wl))
}

// renderResult renders a result's fluents, derived and fresh events
// one per line, in a canonical order.
func renderResult(r *Result) string {
	var b strings.Builder
	for _, name := range sortedKeys(r.Fluents) {
		insts := r.Fluents[name]
		kvs := make([]KV, 0, len(insts))
		for kv := range insts {
			kvs = append(kvs, kv)
		}
		slices.SortFunc(kvs, func(a, b KV) int {
			return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
		})
		for _, kv := range kvs {
			fmt.Fprintf(&b, "holds %s(%s)=%s %v\n", name, kv.Key, kv.Value, insts[kv])
		}
	}
	for _, typ := range sortedKeys(r.Derived) {
		for _, ev := range r.Derived[typ] {
			fmt.Fprintf(&b, "derived %s %s\n", ev, CanonicalAttrs(ev))
		}
	}
	for _, ev := range r.Fresh {
		fmt.Fprintf(&b, "fresh %s %s\n", ev, CanonicalAttrs(ev))
	}
	return b.String()
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
