// Package hrfix exercises the hotalloc rule over rtec rule closures. It
// is loaded under the import path "fixture/traffic", so the function
// literals bound to Derive and Transitions fields are rule closures:
// an attribute map or a concatenated key built once per row — in a loop
// body or in a callback handed to a row iterator, directly or in a
// local closure the rule delegates to — is flagged; the same
// constructs once per call, and per row outside a rule closure, pass.
package hrfix

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
	Transitions func(rows []Event) []Transition
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
		Transitions: func(rows []Event) []Transition {
			var out []Transition
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
