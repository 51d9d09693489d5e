package rtec

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// snapBytes renders a snapshot in its canonical binary form — what the
// byte-identity gates compare.
func snapBytes(t testing.TB, s *EngineSnapshot) []byte {
	t.Helper()
	b, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatalf("encode snapshot: %v", err)
	}
	return b
}

// engineBytes snapshots an engine and renders the snapshot.
func engineBytes(t testing.TB, e *Engine) []byte {
	t.Helper()
	s, err := e.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return snapBytes(t, s)
}

// snapDefs compiles a definition set exercising every rule kind: a
// simple fluent with inertia, an event rule feeding the Fresh dedup
// set, and a static fluent over the simple one.
func snapDefs(t testing.TB) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("tick", "on", "off").
		Simple(SimpleFluent{
			Name:   "power",
			Inputs: []string{"on", "off"},
			Transitions: func(ctx *Context) []Transition {
				var out []Transition
				for _, e := range ctx.Events("on") {
					out = append(out, InitiateAt(e.Key, e.Time))
				}
				for _, e := range ctx.Events("off") {
					out = append(out, TerminateAt(e.Key, e.Time))
				}
				return out
			},
		}).
		Event(EventRule{
			Name:   "surge",
			Inputs: []string{"tick"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, key := range ctx.EventKeys("tick") {
					evs := ctx.EventsForKey("tick", key)
					for i := 1; i < len(evs); i++ {
						pv, _ := evs[i-1].Float("v")
						cv, _ := evs[i].Float("v")
						if evs[i].Time-evs[i-1].Time < 10 && cv > pv {
							out = append(out, NewEvent("surge", evs[i].Time, key, nil))
						}
					}
				}
				return out
			},
		}).
		Static(StaticFluent{
			Name:   "lit",
			Inputs: []string{"power"},
			HoldsFor: func(ctx *Context) map[KV]List {
				out := make(map[KV]List)
				for kv, l := range ctx.FluentInstances("power") {
					out[kv] = l
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

// snapFeed delivers a deterministic mixed map/columnar event load for
// the window ending at query time q.
func snapFeed(t testing.TB, e *Engine, q Time) {
	t.Helper()
	base := q - 50
	if err := e.Input(
		NewEvent("on", base+5, "dev-1", map[string]any{"watts": 40, "room": "a"}),
		NewEvent("off", base+30, "dev-1", nil),
		NewEvent("on", base+35, "dev-2", map[string]any{"watts": int64(25), "dim": true}),
	); err != nil {
		t.Fatal(err)
	}
	blk := &Block{
		Type:  "tick",
		Times: []int64{int64(base + 10), int64(base + 12), int64(base + 20), int64(base + 24)},
		Keys:  []string{"m-1", "m-1", "m-2", "m-2"},
		Cols: []BCol{
			{Name: "v", Kind: ColFloat, F: []float64{1, 2, 5, 3}},
			{Name: "src", Kind: ColStr, SIdx: []uint32{0, 0, 1, 1}, Dict: []string{"scats", "bus"}},
			{Name: "ok", Kind: ColBool, B: []bool{true, false, true, true}},
			{Name: "n", Kind: ColInt, I: []int64{7, 8, 9, 10}},
		},
	}
	if err := e.InputBlock(blk); err != nil {
		t.Fatal(err)
	}
}

func resultsEqual(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.Q != b.Q || a.Window != b.Window {
		t.Fatalf("%s: Q/window mismatch: %d %v vs %d %v", tag, a.Q, a.Window, b.Q, b.Window)
	}
	if !reflect.DeepEqual(a.Fluents, b.Fluents) {
		t.Fatalf("%s: fluents differ:\n%v\nvs\n%v", tag, a.Fluents, b.Fluents)
	}
	if len(a.Derived) != len(b.Derived) {
		t.Fatalf("%s: derived type counts differ", tag)
	}
	for typ, evs := range a.Derived {
		if !eventsEqual(evs, b.Derived[typ]) {
			t.Fatalf("%s: derived %q differ:\n%v\nvs\n%v", tag, typ, evs, b.Derived[typ])
		}
	}
	if !eventsEqual(a.Fresh, b.Fresh) {
		t.Fatalf("%s: fresh differ:\n%v\nvs\n%v", tag, a.Fresh, b.Fresh)
	}
	if a.Stats.InputEvents != b.Stats.InputEvents ||
		a.Stats.DerivedEvents != b.Stats.DerivedEvents ||
		a.Stats.FluentPeriods != b.Stats.FluentPeriods {
		t.Fatalf("%s: stats differ: %+v vs %+v", tag, a.Stats, b.Stats)
	}
}

// eventsEqual compares events by identity (type, time, key) — derived
// events carry no attributes in these rules.
func eventsEqual(a, b []Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Time != b[i].Time || a[i].Key != b[i].Key {
			return false
		}
	}
	return true
}

// TestSnapshotRestoreEquivalence pins the recovery contract: after
// restoring a mid-run snapshot into a fresh engine, every subsequent
// query is identical to the uninterrupted engine's.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	defs := snapDefs(t)
	opts := Options{WorkingMemory: 120, Step: 50}
	orig, err := NewEngine(defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for q := Time(50); q <= 150; q += 50 {
		snapFeed(t, orig, q)
		if _, err := orig.Query(q); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewEngine(defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}

	// A restored engine's snapshot reproduces the original snapshot
	// byte for byte (map-backed vs view events included).
	snap2, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapBytes(t, snap), snapBytes(t, snap2)) {
		t.Fatalf("snapshot of restored engine differs:\n%+v\nvs\n%+v", snap, snap2)
	}

	for q := Time(200); q <= 350; q += 50 {
		snapFeed(t, orig, q)
		snapFeed(t, restored, q)
		// Late arrivals exercise the dirty-watermark path on both.
		late := NewEvent("tick", q-70, "m-1", map[string]any{"v": 9.0})
		if err := orig.Input(late); err != nil {
			t.Fatal(err)
		}
		if err := restored.Input(late); err != nil {
			t.Fatal(err)
		}
		ra, err := orig.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := restored.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, fmt.Sprintf("q=%d", q), ra, rb)
	}
}

// TestSnapshotDeterministic is the canonical-bytes gate: one engine
// state has exactly one binary snapshot — repeated snapshots, either
// store kind, a column store before and after dead-row compaction, a
// snapshot→restore→snapshot round trip through either store and a
// decode→encode round trip all yield the same bytes.
func TestSnapshotDeterministic(t *testing.T) {
	mk := func(kind StoreKind) *Engine {
		e, err := NewEngine(snapDefs(t), Options{WorkingMemory: 100, Step: 50, Store: kind})
		if err != nil {
			t.Fatal(err)
		}
		// Three windows: the first one's rows are evicted by the last
		// query, so the column store carries dead rows (fewer than live
		// ones — it has not compacted yet).
		for q := Time(50); q <= 150; q += 50 {
			snapFeed(t, e, q)
			if _, err := e.Query(q); err != nil {
				t.Fatal(err)
			}
		}
		return e
	}
	col := mk(StoreColumn)
	a, err := col.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := snapBytes(t, a)
	if got := engineBytes(t, col); !bytes.Equal(want, got) {
		t.Fatalf("repeated snapshots differ")
	}
	// Deterministic ordering, not just equality: types, columns and
	// fluents sorted by name.
	for i := 1; i < len(a.Types); i++ {
		if a.Types[i-1].Rows.Type >= a.Types[i].Rows.Type {
			t.Fatalf("types not sorted: %q before %q", a.Types[i-1].Rows.Type, a.Types[i].Rows.Type)
		}
	}
	for _, ts := range a.Types {
		for i := 1; i < len(ts.Rows.Cols); i++ {
			if ts.Rows.Cols[i-1].Name >= ts.Rows.Cols[i].Name {
				t.Fatalf("%s columns not sorted: %q before %q", ts.Rows.Type, ts.Rows.Cols[i-1].Name, ts.Rows.Cols[i].Name)
			}
		}
	}
	for i := 1; i < len(a.Prev); i++ {
		if a.Prev[i-1].Name >= a.Prev[i].Name {
			t.Fatalf("fluents not sorted: %q before %q", a.Prev[i-1].Name, a.Prev[i].Name)
		}
	}

	if got := engineBytes(t, mk(StoreRow)); !bytes.Equal(want, got) {
		t.Fatalf("row-store snapshot differs from column-store snapshot of the same state")
	}

	cs := col.store.(*columnStore)
	dead := 0
	for _, b := range cs.types {
		dead += b.dead
		cs.compact(b)
	}
	if dead == 0 {
		t.Fatalf("fixture carries no dead rows; the compaction leg tests nothing")
	}
	if got := engineBytes(t, col); !bytes.Equal(want, got) {
		t.Fatalf("snapshot changed across dead-row compaction")
	}

	for _, kind := range []StoreKind{StoreRow, StoreColumn} {
		r, err := NewEngine(snapDefs(t), Options{WorkingMemory: 100, Step: 50, Store: kind})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Restore(a); err != nil {
			t.Fatal(err)
		}
		if got := engineBytes(t, r); !bytes.Equal(want, got) {
			t.Fatalf("snapshot changed across a restore into the %v store", kind)
		}
	}

	var decoded EngineSnapshot
	if err := decoded.UnmarshalBinary(want); err != nil {
		t.Fatal(err)
	}
	if got := snapBytes(t, &decoded); !bytes.Equal(want, got) {
		t.Fatalf("snapshot changed across decode→encode")
	}
	if !reflect.DeepEqual(a, &decoded) {
		t.Fatalf("decoded snapshot differs:\n%+v\nvs\n%+v", a, &decoded)
	}
}

func TestPartitionedSnapshotRestore(t *testing.T) {
	defs := snapDefs(t)
	opts := Options{WorkingMemory: 100, Step: 50}
	assign := func(ev Event) int {
		if len(ev.Key) > 0 && ev.Key[len(ev.Key)-1]%2 == 0 {
			return 0
		}
		return 1
	}
	orig, err := NewPartitioned(defs, opts, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		ev := NewEvent("on", Time(5+i*7), fmt.Sprintf("dev-%d", i), nil)
		if err := orig.Input(ev); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := orig.Query(50); err != nil {
		t.Fatal(err)
	}
	snaps, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	restored, err := NewPartitioned(defs, opts, 2, assign)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	ra, err := orig.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := restored.Query(100)
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "partitioned", MergeResults(ra), MergeResults(rb))
	if err := restored.Restore(snaps[:1]); err == nil {
		t.Fatalf("partition count mismatch accepted")
	}
}

func TestRestoreValidation(t *testing.T) {
	e, err := NewEngine(snapDefs(t), Options{WorkingMemory: 100, Step: 50})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Restore(&EngineSnapshot{
		Types: []TypeSnapshot{{Rows: Block{Type: "ghost"}}},
	}); err == nil {
		t.Fatalf("undeclared SDE type accepted")
	}
	tick := func(mut func(*Block)) *EngineSnapshot {
		b := Block{
			Type: "tick", Times: []int64{10, 20}, KIdx: []uint32{0, 0}, KDict: []string{"a"},
			Cols: []BCol{{Name: "src", Kind: ColStr, SIdx: []uint32{0, 0}, Dict: []string{"bus"}}},
		}
		mut(&b)
		return &EngineSnapshot{Types: []TypeSnapshot{{LateMin: MaxTime, Rows: b}}}
	}
	if err := e.Restore(tick(func(*Block) {})); err != nil {
		t.Fatalf("well-formed rows rejected: %v", err)
	}
	for name, mut := range map[string]func(*Block){
		"unsorted rows":          func(b *Block) { b.Times[1] = 5 },
		"transport-keyed rows":   func(b *Block) { b.Keys = []string{"a", "a"} },
		"key id out of range":    func(b *Block) { b.KIdx[1] = 1 },
		"short column":           func(b *Block) { b.Cols[0].SIdx = b.Cols[0].SIdx[:1] },
		"short presence mask":    func(b *Block) { b.Cols[0].Present = []bool{true} },
		"string id out of range": func(b *Block) { b.Cols[0].SIdx[0] = 3 },
		"duplicate column":       func(b *Block) { b.Cols = append(b.Cols, b.Cols[0]) },
		"unknown column kind":    func(b *Block) { b.Cols[0].Kind = ColAny + 1 },
		"unsupported boxed value": func(b *Block) {
			b.Cols[0] = BCol{Name: "src", Kind: ColAny, A: []any{1.5, []int{1}}}
		},
	} {
		if err := e.Restore(tick(mut)); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	if err := e.Restore(&EngineSnapshot{
		Prev: []FluentSnapshot{{Name: "power", Instances: []InstanceSnapshot{
			{Key: "a", Value: "true", Spans: List{sp(30, 20)}},
		}}},
	}); err == nil {
		t.Fatalf("invalid interval list accepted")
	}
	// Unsupported attribute types are a snapshot-time error.
	if err := e.Input(NewEvent("tick", 5, "a", map[string]any{"bad": []int{1}})); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(); err == nil {
		t.Fatalf("unsupported attribute type accepted")
	}
}

// fuzzSeedSnapshots renders two real miniature snapshots: the mixed
// map/columnar load of snapFeed (inertia and dedup state included) and
// a randomized load whose partial, mixed-kind attribute sets exercise
// presence masks and the boxed column kind.
func fuzzSeedSnapshots(t testing.TB) [][]byte {
	t.Helper()
	plain, err := NewEngine(snapDefs(t), Options{WorkingMemory: 120, Step: 50, Store: StoreColumn})
	if err != nil {
		t.Fatal(err)
	}
	for q := Time(50); q <= 150; q += 50 {
		snapFeed(t, plain, q)
		if _, err := plain.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	mixed, err := NewEngine(colEquivDefs(t), Options{WorkingMemory: 60, Step: 20, Store: StoreColumn})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 40; i++ {
		if err := mixed.Input(randomEquivRow(rng, 40).event()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := mixed.Query(40); err != nil {
		t.Fatal(err)
	}
	return [][]byte{engineBytes(t, plain), engineBytes(t, mixed)}
}

// FuzzSnapshotDecode feeds arbitrary bytes to the snapshot decoder:
// nothing panics, whatever decodes passes Restore's validation and
// re-encodes, and the re-encoding is a fixed point — it decodes to a
// snapshot that encodes to the same bytes.
func FuzzSnapshotDecode(f *testing.F) {
	for _, seed := range fuzzSeedSnapshots(f) {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		for _, at := range []int{1, len(seed) / 3, len(seed) / 2, len(seed) - 2} {
			flipped := append([]byte(nil), seed...)
			flipped[at] ^= 0x10
			f.Add(flipped)
		}
	}
	f.Add([]byte(nil))
	defs := colEquivDefs(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s EngineSnapshot
		if err := s.UnmarshalBinary(data); err != nil {
			return
		}
		enc, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("decoded snapshot does not re-encode: %v", err)
		}
		var again EngineSnapshot
		if err := again.UnmarshalBinary(enc); err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if enc2 := snapBytes(t, &again); !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not a fixed point:\n%x\nvs\n%x", enc, enc2)
		}
		// Restore either rejects the snapshot (undeclared type, invalid
		// intervals) or files it — the same way into both stores, which
		// then agree on the canonical bytes of what they hold.
		var restored [][]byte
		for _, kind := range []StoreKind{StoreRow, StoreColumn} {
			e, err := NewEngine(defs, Options{WorkingMemory: 60, Step: 20, Store: kind})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Restore(&s); err == nil {
				restored = append(restored, engineBytes(t, e))
			}
		}
		if len(restored) == 1 || (len(restored) == 2 && !bytes.Equal(restored[0], restored[1])) {
			t.Fatalf("row and column stores disagree on a restored snapshot")
		}
	})
}
