package rtec

import (
	"fmt"
	"math/rand"
	"testing"
)

// engineFootprint is what an engine holds after a query: the store's
// resident bytes and the size of every structure keyed by SDE key.
type engineFootprint struct {
	resident uint64
	seeds    int // inertia seeds: fluent instances carried to the next window
	seen     int // Fresh/Reported identities
	keys     int // column store key dictionary entries
	interned int // column store interning map entries
	byKid    int // column store per-key index lists
	cached   int // overlap cache points and events
}

func (e *Engine) footprint() engineFootprint {
	f := engineFootprint{resident: e.store.residentBytes()}
	for _, m := range e.prev {
		f.seeds += len(m)
	}
	f.seen = len(e.seen.ids)
	for _, b := range e.store.types {
		f.keys += len(b.seg.blk.KDict)
		f.interned += len(b.seg.kids)
		f.byKid += len(b.byKid)
	}
	for _, c := range e.cache {
		f.cached += len(c.trans) + len(c.evs)
	}
	return f
}

// peak raises every field of f to g's where g's is larger.
func (f *engineFootprint) peak(g engineFootprint) {
	f.resident = max(f.resident, g.resident)
	f.seeds = max(f.seeds, g.seeds)
	f.seen = max(f.seen, g.seen)
	f.keys = max(f.keys, g.keys)
	f.interned = max(f.interned, g.interned)
	f.byKid = max(f.byKid, g.byKid)
	f.cached = max(f.cached, g.cached)
}

// TestCardinalityBounded: a stream in which every SDE carries a key
// never seen before must not grow the engine with its history. The
// working memory, the inertia seeds, the Fresh/Reported identities, the
// column store's key dictionary, interning map and per-key index and
// the overlap cache each peak over windows 11–40 within 1.25× of their
// peak over the first ten windows. The fluent holds for the minute up to
// a high reading: both its points lie at or before the SDE they are
// derived from. A point after it — a termination a minute later — is
// lost with the SDE once it leaves the window, and the instance then
// holds by inertia forever, as does one that no SDE terminates; its
// seed is then part of the answer, not history.
func TestCardinalityBounded(t *testing.T) {
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Simple(SimpleFluent{
			Name:   "alarm",
			Inputs: []string{"reading"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				for _, e := range ctx.Events("reading") {
					if lvl, _ := e.Float("level"); lvl > 0.5 {
						out = append(out, InitiateAt(e.Key, e.Time-60), TerminateAt(e.Key, e.Time))
					}
				}
				return out
			},
		}).
		Event(EventRule{
			Name:   "spike",
			Inputs: []string{"reading"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, e := range ctx.Events("reading") {
					if lvl, _ := e.Float("level"); lvl > 0.9 {
						out = append(out, NewEvent("spike", e.Time, e.Key, nil))
					}
				}
				return out
			},
		}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	const (
		step    = 600
		steps   = 4 // per window
		perStep = 400
		windows = 40
	)
	e, err := NewEngine(defs, Options{WorkingMemory: steps * step, Step: step, RuleWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var early, late engineFootprint
	next := 0
	for s := 1; s <= windows*steps; s++ {
		q := Time(s * step)
		rows := make([]equivRow, perStep)
		for i := range rows {
			// Arrival-ordered within the step, every tenth row a step late.
			tm := int64(q) - step + int64(i*step/perStep)
			if i%10 == 9 {
				tm -= step
			}
			rows[i] = equivRow{t: tm, key: fmt.Sprintf("k%d", next), attrs: map[string]any{"level": rng.Float64()}}
			next++
		}
		if err := e.InputBlockRows(rowsToBlock(rows, true), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Query(q); err != nil {
			t.Fatal(err)
		}
		if s <= 10*steps {
			early.peak(e.footprint())
		} else {
			late.peak(e.footprint())
		}
	}
	t.Logf("peak over windows 1–10: %+v", early)
	t.Logf("peak over windows 11–40: %+v", late)
	for _, c := range []struct {
		name        string
		early, late uint64
	}{
		{"resident bytes", early.resident, late.resident},
		{"inertia seeds", uint64(early.seeds), uint64(late.seeds)},
		{"seen identities", uint64(early.seen), uint64(late.seen)},
		{"key dictionary", uint64(early.keys), uint64(late.keys)},
		{"interned keys", uint64(early.interned), uint64(late.interned)},
		{"per-key index", uint64(early.byKid), uint64(late.byKid)},
		{"overlap cache", uint64(early.cached), uint64(late.cached)},
	} {
		if c.early == 0 {
			t.Errorf("%s: nothing held over the first ten windows", c.name)
		}
		if 4*c.late > 5*c.early {
			t.Errorf("%s grew with history: peak %d over the first ten windows, %d over the next thirty", c.name, c.early, c.late)
		}
	}
}
