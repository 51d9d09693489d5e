// Package hrfix exercises the hotalloc rule over rtec rule closures. It
// is loaded under the import path "fixture/traffic", so the function
// literals bound to Derive and Transitions fields are rule closures:
// an attribute map or a concatenated key built once per row — in a loop
// body or in a callback handed to a row iterator, directly or in a
// local closure the rule delegates to — is flagged; the same
// constructs once per call, and per row outside a rule closure, pass.
// So is an event Rows.At builds per row and then reads by a constant
// attribute name — also in a package function the rule calls; reading
// the same column through a Rows.Col handle passes. A Transitions
// closure that builds a transition slice of its own — with make or a nil
// var — instead of appending to the buffer it is handed is flagged;
// growing that buffer with slices.Grow passes.
package hrfix

import "slices"

// Event mirrors the engine's event record.
type Event struct {
	Time  int64
	Key   string
	Attrs map[string]any
}

// Transition mirrors the engine's fluent transition point.
type Transition struct {
	Key  string
	Time int64
}

// EventRule and SimpleFluent mirror the engine's rule declarations.
type EventRule struct {
	Name   string
	Derive func(rows []Event) []Event
}

type SimpleFluent struct {
	Name        string
	Transitions func(rows []Event, out []Transition) []Transition
}

// Block mirrors the engine's event block builder.
type Block struct {
	times []int64
	keys  []string
	strs  []string
}

func (b *Block) Add(t int64, key string) { b.times, b.keys = append(b.times, t), append(b.keys, key) }
func (b *Block) Str(v string)            { b.strs = append(b.strs, v) }
func (b *Block) Events() []Event         { return make([]Event, len(b.times)) }

// eachRow is a row iterator taking a per-row callback.
func eachRow(rows []Event, fn func(e Event, area int)) {
	for _, e := range rows {
		fn(e, len(e.Key))
	}
}

func pairKey(a, b string) string { return a + "\x1f" + b } // outside any rule closure: fine

// Rules declares the fixture's rule closures.
func Rules(areas []string) (EventRule, EventRule, EventRule, SimpleFluent, EventRule) {
	// A map and a concatenated key per row of a loop: both flagged.
	perRowMap := EventRule{
		Name: "perRowMap",
		Derive: func(rows []Event) []Event {
			var out []Event
			for _, e := range rows {
				out = append(out, Event{Time: e.Time, Key: e.Key + "/x", Attrs: map[string]any{"bus": e.Key}})
			}
			return out
		},
	}

	// The same in a callback handed to a row iterator, inside a local
	// closure the rule delegates to: both flagged.
	derive := func(rows []Event, suffix string) []Event {
		var out []Event
		eachRow(rows, func(e Event, area int) {
			out = append(out, Event{Time: e.Time, Key: e.Key + suffix, Attrs: map[string]any{"area": areas[area%len(areas)]}})
		})
		return out
	}
	delegated := EventRule{Name: "delegated", Derive: func(rows []Event) []Event { return derive(rows, "/y") }}

	// Column appends per row, one label built per call, keys built by a
	// helper and cached per distinct pair: passes.
	clean := EventRule{
		Name: "clean",
		Derive: func(rows []Event) []Event {
			label := "seen by " + areas[0]
			keys := make(map[string]string)
			var blk Block
			eachRow(rows, func(e Event, area int) {
				key, ok := keys[e.Key]
				if !ok {
					key = pairKey(e.Key, areas[area%len(areas)])
					keys[e.Key] = key
				}
				blk.Add(e.Time, key)
				blk.Str(label)
			})
			return blk.Events()
		},
	}

	// Transitions closures are held to the same contract.
	fluent := SimpleFluent{
		Name: "fluent",
		Transitions: func(rows []Event, out []Transition) []Transition {
			for i := range rows {
				out = append(out, Transition{Key: "k:" + rows[i].Key, Time: rows[i].Time})
			}
			return out
		},
	}

	// A deliberate per-row map, suppressed at the site.
	allowed := EventRule{
		Name: "allowed",
		Derive: func(rows []Event) []Event {
			var out []Event
			for _, e := range rows {
				//lint:allow hotalloc fixture: a rare diagnostic event, one per window at most
				out = append(out, Event{Time: e.Time, Key: e.Key, Attrs: map[string]any{"why": "fixture"}})
			}
			return out
		},
	}
	return perRowMap, delegated, clean, fluent, allowed
}

// NotARule builds a map per row outside any rule closure: not this
// rule's business.
func NotARule(rows []Event) []Event {
	var out []Event
	for _, e := range rows {
		out = append(out, Event{Time: e.Time, Key: e.Key + "/z", Attrs: map[string]any{"bus": e.Key}})
	}
	return out
}

// Float mirrors the engine's by-name attribute accessor.
func (e Event) Float(name string) (float64, bool) {
	v, ok := e.Attrs[name].(float64)
	return v, ok
}

// Rows mirrors the engine's window view and Column its column handle.
type Rows struct{ evs []Event }

func (r Rows) Len() int                      { return len(r.evs) }
func (r Rows) At(i int) Event                { return r.evs[i] }
func (r Rows) TimeAt(i int) int64            { return r.evs[i].Time }
func (r Rows) Col(name string) Column        { return Column{rows: r, name: name} }
func (c Column) Float(i int) (float64, bool) { return c.rows.evs[i].Float(c.name) }

type Column struct {
	rows Rows
	name string
}

// ViewFluent is a fluent whose closure reads a window view.
type ViewFluent struct {
	Name        string
	Transitions func(rows Rows, out []Transition) []Transition
}

// busyKeys is a row iterator of the package: a rule that calls it is
// followed into it, so its per-row by-name read is flagged.
func busyKeys(rows Rows) []string {
	var out []string
	for i := 0; i < rows.Len(); i++ {
		e := rows.At(i)
		if d, _ := e.Float("density"); d > 0.5 {
			out = append(out, e.Key)
		}
	}
	return out
}

// ViewRules declares the view-reading rule closures.
func ViewRules() (ViewFluent, ViewFluent, ViewFluent, ViewFluent, ViewFluent, ViewFluent) {
	// An Event per row, its column found by name per row: flagged once
	// per At call.
	byName := ViewFluent{
		Name: "byName",
		Transitions: func(rows Rows, out []Transition) []Transition {
			for i := 0; i < rows.Len(); i++ {
				e := rows.At(i)
				d, _ := e.Float("density")
				f, _ := e.Float("flow")
				if p, _ := rows.At(i).Float("prev"); d > f && p > 0 {
					out = append(out, Transition{Key: e.Key, Time: e.Time})
				}
			}
			return out
		},
	}

	// The columns resolved once per view, the rows read by index:
	// passes.
	handles := ViewFluent{
		Name: "handles",
		Transitions: func(rows Rows, out []Transition) []Transition {
			density, flow := rows.Col("density"), rows.Col("flow")
			for i := 0; i < rows.Len(); i++ {
				d, _ := density.Float(i)
				f, _ := flow.Float(i)
				if d > f {
					out = append(out, Transition{Time: rows.TimeAt(i)})
				}
			}
			return out
		},
	}

	// The by-name read happens in a package function the rule calls.
	delegated := ViewFluent{
		Name: "delegated",
		Transitions: func(rows Rows, out []Transition) []Transition {
			for _, key := range busyKeys(rows) {
				out = append(out, Transition{Key: key})
			}
			return out
		},
	}
	// A slice of its own, declared nil or made with a size hint, in
	// place of the buffer the closure is handed: both flagged.
	ownNil := ViewFluent{
		Name: "ownNil",
		Transitions: func(rows Rows, _ []Transition) []Transition {
			var out []Transition
			for i := 0; i < rows.Len(); i++ {
				out = append(out, Transition{Time: rows.TimeAt(i)})
			}
			return out
		},
	}
	ownMade := ViewFluent{
		Name: "ownMade",
		Transitions: func(rows Rows, _ []Transition) []Transition {
			out := make([]Transition, 0, rows.Len())
			for i := 0; i < rows.Len(); i++ {
				out = append(out, Transition{Time: rows.TimeAt(i)})
			}
			return out
		},
	}

	// The same size hint on the handed buffer: passes.
	grown := ViewFluent{
		Name: "grown",
		Transitions: func(rows Rows, out []Transition) []Transition {
			out = slices.Grow(out, rows.Len())
			for i := 0; i < rows.Len(); i++ {
				out = append(out, Transition{Time: rows.TimeAt(i)})
			}
			return out
		},
	}
	return byName, handles, delegated, ownNil, ownMade, grown
}
