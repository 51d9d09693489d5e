package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// colEquivDefs exercises every window access path a store must serve —
// Rows, RowsForKey, EventKeys, the materializing Events/EventsForKey
// compatibility API, and all accessor kinds — plus a second stratum
// reading derived events through the Rows view.
func colEquivDefs(t testing.TB) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Simple(SimpleFluent{
			Name:   "alert",
			Inputs: []string{"reading"},
			Transitions: func(ctx *Context) []Transition {
				var out []Transition
				for _, key := range ctx.EventKeys("reading") {
					rows := ctx.RowsForKey("reading", key)
					for i := 0; i < rows.Len(); i++ {
						e := rows.At(i)
						level, _ := e.Float("level")
						alarm, _ := e.Bool("alarm")
						zone, _ := e.Str("zone")
						count, _ := e.Int("count")
						if level > 0.5 && alarm {
							out = append(out, InitiateAt(key, rows.TimeAt(i)))
						}
						if zone == "north" && count >= 0 {
							out = append(out, TerminateAt(key, rows.TimeAt(i)))
						}
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
				rows := ctx.Rows("reading")
				for i := 0; i < rows.Len(); i++ {
					if level, _ := rows.At(i).Float("level"); level > 0.9 {
						out = append(out, NewEvent("spike", rows.TimeAt(i), rows.KeyAt(i), nil))
					}
				}
				return out
			},
		}).
		Event(EventRule{
			Name:   "burst",
			Inputs: []string{"spike"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, key := range ctx.EventKeys("spike") {
					evs := ctx.EventsForKey("spike", key)
					for i := 1; i < len(evs); i++ {
						if evs[i].Time-evs[i-1].Time <= 5 {
							out = append(out, NewEvent("burst", evs[i].Time, key, nil))
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
	return defs
}

// equivRow is one generated SDE with a possibly partial, possibly
// mixed-kind attribute set — the worst case for the columnar resident
// layout (Present masks, ColIntGo, promotion to ColAny).
type equivRow struct {
	t     int64
	key   string
	attrs map[string]any
}

func randomEquivRow(rng *rand.Rand, span int64) equivRow {
	r := equivRow{
		t:     rng.Int63n(span),
		key:   fmt.Sprintf("k%d", rng.Intn(5)),
		attrs: map[string]any{},
	}
	if rng.Intn(10) > 0 { // occasionally missing entirely
		r.attrs["level"] = float64(rng.Intn(100)) / 100
	}
	if rng.Intn(10) > 0 {
		r.attrs["alarm"] = rng.Intn(2) == 0
	}
	if rng.Intn(10) > 0 {
		r.attrs["zone"] = []string{"north", "south", "east"}[rng.Intn(3)]
	}
	switch rng.Intn(4) { // mixed integer kinds force ColAny promotion
	case 0:
		r.attrs["count"] = int64(rng.Intn(10) - 5)
	case 1:
		r.attrs["count"] = rng.Intn(10) - 5
	case 2:
		r.attrs["count"] = float64(rng.Intn(10) - 5)
	}
	return r
}

func (r equivRow) event() Event {
	var attrs map[string]any
	if len(r.attrs) > 0 {
		attrs = r.attrs
	}
	return NewEvent("reading", Time(r.t), r.key, attrs)
}

// rowsToBlock columnarizes the rows the way a generic transport layer
// would: one column per attribute name, kinds from the first value
// seen (mismatches promote to the boxed column), absent attributes
// masked. withKIdx optionally dictionary-encodes the keys.
func rowsToBlock(rows []equivRow, withKIdx bool) *Block {
	b := &Block{Type: "reading"}
	if withKIdx {
		kdict := map[string]uint32{}
		for _, r := range rows {
			kid, ok := kdict[r.key]
			if !ok {
				kid = uint32(len(b.KDict))
				kdict[r.key] = kid
				b.KDict = append(b.KDict, r.key)
			}
			b.KIdx = append(b.KIdx, kid)
		}
	}
	for i, r := range rows {
		b.Times = append(b.Times, r.t)
		b.Keys = append(b.Keys, r.key)
		for name, v := range r.attrs {
			//lint:allow nodeterminism column order is layout only; recognition reads columns by name
			ci := b.colIndex(name)
			if ci < 0 {
				b.Cols = append(b.Cols, newColFor(name, v, i))
				continue
			}
			b.Cols[ci].appendCell(v, true, i)
		}
		for ci := range b.Cols {
			c := &b.Cols[ci]
			if n := colLen(c); n <= i {
				c.ensurePresent(n)
				c.Present = append(c.Present, false)
				c.appendZero()
			}
		}
	}
	return b
}

// equivEngines builds one engine per (store kind, delivery mode)
// combination.
type equivEngine struct {
	name  string
	e     *Engine
	block bool // deliver via InputBlock rather than Input
	kidx  bool // blocks carry a key dictionary
}

func newEquivEngines(t testing.TB, opts Options) []equivEngine {
	t.Helper()
	mk := func(kind StoreKind) *Engine {
		o := opts
		o.Store = kind
		e, err := NewEngine(colEquivDefs(t), o)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return []equivEngine{
		{name: "row/item", e: mk(StoreRow)},
		{name: "row/block", e: mk(StoreRow), block: true, kidx: true},
		{name: "column/item", e: mk(StoreColumn)},
		{name: "column/block", e: mk(StoreColumn), block: true, kidx: true},
		{name: "column/block-nokidx", e: mk(StoreColumn), block: true},
	}
}

// TestColumnStoreIsTheZeroValue pins which store an Options literal
// that does not name one gets: the column store. The row store is the
// reference, selected by name.
func TestColumnStoreIsTheZeroValue(t *testing.T) {
	if (Options{}).Store != StoreColumn {
		t.Fatalf("Options{}.Store = %v, want %v", Options{}.Store, StoreColumn)
	}
	e, err := NewEngine(colEquivDefs(t), Options{WorkingMemory: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.store.(*columnStore); !ok {
		t.Errorf("default engine store is %T, want *columnStore", e.store)
	}
	if e, err = NewEngine(colEquivDefs(t), Options{WorkingMemory: 60, Store: StoreRow}); err != nil {
		t.Fatal(err)
	} else if _, ok := e.store.(*eventStore); !ok {
		t.Errorf("StoreRow engine store is %T, want *eventStore", e.store)
	}
	if _, err := NewEngine(colEquivDefs(t), Options{WorkingMemory: 60, Store: StoreRow + 1}); err == nil {
		t.Error("unknown store kind accepted")
	}
	if StoreColumn.String() != "column" || StoreRow.String() != "row" {
		t.Errorf("store names = %q, %q", StoreColumn, StoreRow)
	}
}

func deliverChunk(t testing.TB, ee equivEngine, chunk []equivRow) {
	t.Helper()
	if ee.block {
		if err := ee.e.InputBlock(rowsToBlock(chunk, ee.kidx)); err != nil {
			t.Fatal(err)
		}
		return
	}
	evs := make([]Event, len(chunk))
	for i, r := range chunk {
		evs[i] = r.event()
	}
	if err := ee.e.Input(evs...); err != nil {
		t.Fatal(err)
	}
}

// compareAt queries every engine at q and demands identical
// recognition output, stats and store snapshots.
func compareAt(t testing.TB, engines []equivEngine, q Time, label string) {
	t.Helper()
	var ref *Result
	var refSnap []byte
	for _, ee := range engines {
		res, err := ee.e.Query(q)
		if err != nil {
			t.Fatalf("%s: %s: %v", label, ee.name, err)
		}
		snap := engineBytes(t, ee.e)
		if ref == nil {
			ref, refSnap = res, snap
			continue
		}
		if !reflect.DeepEqual(ref.Fluents, res.Fluents) {
			t.Fatalf("%s: %s fluents differ from %s:\nref: %v\ngot: %v",
				label, ee.name, engines[0].name, ref.Fluents, res.Fluents)
		}
		if !reflect.DeepEqual(ref.Derived, res.Derived) {
			t.Fatalf("%s: %s derived events differ from %s:\nref: %v\ngot: %v",
				label, ee.name, engines[0].name, ref.Derived, res.Derived)
		}
		if !reflect.DeepEqual(ref.Fresh, res.Fresh) {
			t.Fatalf("%s: %s fresh events differ from %s", label, ee.name, engines[0].name)
		}
		if ref.Stats.InputEvents != res.Stats.InputEvents {
			t.Fatalf("%s: %s input events = %d, %s = %d",
				label, ee.name, res.Stats.InputEvents, engines[0].name, ref.Stats.InputEvents)
		}
		if !bytes.Equal(refSnap, snap) {
			t.Fatalf("%s: %s snapshot differs from %s:\nref: %x\ngot: %x",
				label, ee.name, engines[0].name, refSnap, snap)
		}
	}
}

// TestColumnStoreMatchesEventStore is the randomized store-equivalence
// property: the same delayed, out-of-order stream delivered per-item
// and as columnar blocks (with and without key dictionaries) into
// row-resident and column-resident engines must produce bit-identical
// recognition output and bit-identical snapshots at every query — over
// enough windows that eviction, segment compaction and the overlap
// merge all trigger repeatedly.
func TestColumnStoreMatchesEventStore(t *testing.T) {
	const (
		wm   = Time(60)
		step = Time(20)
		span = int64(600)
	)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		engines := newEquivEngines(t, Options{WorkingMemory: wm, Step: step, RuleWorkers: 1})

		q := Time(0)
		clock := int64(0)
		for clock < span {
			n := 1 + rng.Intn(8)
			chunk := make([]equivRow, n)
			for i := range chunk {
				r := randomEquivRow(rng, 40)
				// Cluster around the advancing clock with jitter both
				// ways: late arrivals, ties and out-of-order rows.
				r.t += clock - 20
				if r.t < 0 {
					r.t = 0
				}
				chunk[i] = r
			}
			for _, ee := range engines {
				deliverChunk(t, ee, chunk)
			}
			clock += int64(rng.Intn(20))
			if nq := Time(clock); nq >= q+step {
				q = nq
				compareAt(t, engines, q, fmt.Sprintf("trial %d q=%d", trial, q))
			}
		}
	}
}

// FuzzMergeBlock drives the same randomized equivalence from fuzzed
// bytes: each 4-byte group is one row (time delta, key, attribute
// selector, value), every third chunk boundary queries and compares.
// This pins insertRows — bulk column append, order merge, per-key
// filing, with and without KIdx — to row-by-row insert on both stores.
func FuzzMergeBlock(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 50, 1, 2, 3, 9, 9, 0xff, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 5, 7, 9, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		engines := newEquivEngines(t, Options{WorkingMemory: 30, Step: 10, RuleWorkers: 1})
		clock := int64(0)
		q := Time(0)
		chunks := 0
		for off := 0; off+4 <= len(data) && chunks < 64; off += 4 {
			n := 1 + int(data[off])%6
			chunk := make([]equivRow, 0, n)
			for i := 0; i < n && off+4 <= len(data); i++ {
				b0, b1, b2, b3 := data[off], data[off+1], data[off+2], data[off+3]
				r := equivRow{
					t:     clock - 15 + int64(b0)%30,
					key:   fmt.Sprintf("k%d", b1%4),
					attrs: map[string]any{},
				}
				if r.t < 0 {
					r.t = 0
				}
				if b2&1 != 0 {
					r.attrs["level"] = float64(b3) / 255
				}
				if b2&2 != 0 {
					r.attrs["alarm"] = b3&1 != 0
				}
				if b2&4 != 0 {
					r.attrs["zone"] = []string{"north", "south"}[b3%2]
				}
				switch b2 & 24 {
				case 8:
					r.attrs["count"] = int64(b3) - 128
				case 16:
					r.attrs["count"] = int(b3) - 128
				}
				chunk = append(chunk, r)
				off += 4
			}
			off -= 4 // outer loop advances once more
			for _, ee := range engines {
				deliverChunk(t, ee, chunk)
			}
			clock += int64(data[off%len(data)]) % 12
			chunks++
			if nq := Time(clock); chunks%3 == 0 && nq > q {
				q = nq
				compareAt(t, engines, q, fmt.Sprintf("chunk %d q=%d", chunks, q))
			}
		}
	})
}

// TestSnapshotRoundTripLateMin pins the dirty watermark across
// save/restore for every (source store, destination store) pair: a
// snapshot taken after late arrivals must restore — into either store
// kind — with the watermark intact, so the first post-restore query
// recomputes the late region exactly like the uninterrupted engine.
func TestSnapshotRoundTripLateMin(t *testing.T) {
	kinds := []StoreKind{StoreRow, StoreColumn}
	for _, src := range kinds {
		for _, dst := range kinds {
			t.Run(fmt.Sprintf("%v-to-%v", src, dst), func(t *testing.T) {
				opts := Options{WorkingMemory: 40, Step: 10, RuleWorkers: 1}
				opts.Store = src
				e, err := NewEngine(colEquivDefs(t), opts)
				if err != nil {
					t.Fatal(err)
				}
				feed := func(e *Engine, rows ...equivRow) {
					t.Helper()
					for _, r := range rows {
						if err := e.Input(r.event()); err != nil {
							t.Fatal(err)
						}
					}
				}
				feed(e,
					equivRow{t: 5, key: "k1", attrs: map[string]any{"level": 0.95, "alarm": true}},
					equivRow{t: 12, key: "k2", attrs: map[string]any{"level": 0.2, "count": 3}},
				)
				if _, err := e.Query(20); err != nil {
					t.Fatal(err)
				}
				// Late arrivals: at or before the last query time.
				feed(e,
					equivRow{t: 8, key: "k1", attrs: map[string]any{"zone": "north", "count": int64(1)}},
					equivRow{t: 15, key: "k3", attrs: map[string]any{"level": 0.99}},
				)
				wantFloor := e.store.dirtyFloor(map[string]bool{"reading": true})
				if wantFloor != 8 {
					t.Fatalf("source dirty floor = %d, want 8", int64(wantFloor))
				}

				snap, err := e.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ropts := opts
				ropts.Store = dst
				r, err := NewEngine(colEquivDefs(t), ropts)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Restore(snap); err != nil {
					t.Fatal(err)
				}
				if got := r.store.dirtyFloor(map[string]bool{"reading": true}); got != wantFloor {
					t.Fatalf("restored dirty floor = %d, want %d", int64(got), int64(wantFloor))
				}
				// Restored snapshots are idempotent across store kinds.
				if !bytes.Equal(snapBytes(t, snap), engineBytes(t, r)) {
					t.Fatalf("snapshot bytes changed across restore")
				}
				// The next query incorporates the late region
				// identically on both engines.
				a, err := e.Query(30)
				if err != nil {
					t.Fatal(err)
				}
				b, err := r.Query(30)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Fluents, b.Fluents) || !reflect.DeepEqual(a.Derived, b.Derived) {
					t.Fatalf("post-restore query differs:\nsource:   %v %v\nrestored: %v %v",
						a.Fluents, a.Derived, b.Fluents, b.Derived)
				}
			})
		}
	}
}

// TestRestoreResidentBytes pins the footprint of the bulk restore path:
// a column-store engine restored from a snapshot holds the same rows in
// the same packed kinds as the engine that wrote it — no boxed
// fallback columns, no presence masks, no dead dictionary entries the
// original does not have — so its resident bytes match the original's
// (compacted, so both sides hold live rows only) within a few percent.
func TestRestoreResidentBytes(t *testing.T) {
	opts := Options{WorkingMemory: 400, Step: 100, RuleWorkers: 1, Store: StoreColumn, Profile: true}
	orig, err := NewEngine(colEquivDefs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var last *Result
	for q := Time(100); q <= 1200; q += 100 {
		rows := make([]equivRow, 600)
		for i := range rows {
			rows[i] = equivRow{
				t:   int64(q) - 100 + int64(i)/6,
				key: fmt.Sprintf("k%d", rng.Intn(40)),
				attrs: map[string]any{
					"level": rng.Float64(),
					"alarm": rng.Intn(2) == 0,
					"zone":  []string{"north", "south", "east"}[rng.Intn(3)],
					"count": int64(rng.Intn(9)),
				},
			}
		}
		if err := orig.InputBlock(rowsToBlock(rows, true)); err != nil {
			t.Fatal(err)
		}
		if last, err = orig.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	cs := orig.store.(*columnStore)
	for _, b := range cs.types {
		cs.compact(b)
	}
	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewEngine(colEquivDefs(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	want, got := float64(orig.store.residentBytes()), float64(restored.store.residentBytes())
	t.Logf("resident bytes: original %.0f (query-time %d), restored %.0f (%.3f×)", want, last.Stats.ResidentBytes, got, got/want)
	if got < 0.95*want || got > 1.05*want {
		t.Fatalf("restored engine holds %.0f resident bytes, original %.0f: outside ±5%%", got, want)
	}
	ra, err := orig.Query(1300)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.Query(1300)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Stats.ResidentBytes == 0 || rb.Stats.ResidentBytes == 0 {
		t.Fatalf("profiled queries report no resident bytes")
	}
	if !reflect.DeepEqual(ra.Fluents, rb.Fluents) || !reflect.DeepEqual(ra.Derived, rb.Derived) {
		t.Fatalf("post-restore query differs")
	}
}
