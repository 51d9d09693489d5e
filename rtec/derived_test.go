package rtec

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// parityDefs compiles one event rule, "alarm", that derives from each
// "ping" two alarms sharing the ping's identity (key, time) — so the
// Fresh dedup has a survivor to choose — with every packed attribute
// kind, either as EventBlock views or as map-backed events.
func parityDefs(t *testing.T, blockBacked bool) *Definitions {
	t.Helper()
	defs, err := NewBuilder().DeclareSDE("ping").Event(EventRule{
		Name:     "alarm",
		Inputs:   []string{"ping"},
		Locality: Pointwise(),
		Derive: func(ctx *Context) []Event {
			rows := ctx.Rows("ping")
			blk := NewEventBlock("alarm",
				BCol{Name: "level", Kind: ColFloat}, BCol{Name: "count", Kind: ColInt},
				BCol{Name: "urgent", Kind: ColBool}, BCol{Name: "source", Kind: ColStr})
			var maps []Event
			for i := 0; i < rows.Len(); i++ {
				t, key := rows.TimeAt(i), rows.At(i).Key
				for _, source := range []string{"zeta", "alpha"} { // survivor is not the first derived
					level, count, urgent := 0.5+float64(t), int64(t)*3, t%2 == 0
					if blockBacked {
						blk.Add(t, key)
						blk.Float(0, level)
						blk.Int(1, count)
						blk.blk.Cols[2].B = append(blk.blk.Cols[2].B, urgent)
						blk.Str(3, source)
					} else {
						maps = append(maps, NewEvent("alarm", t, key, map[string]any{
							"level": level, "count": count, "urgent": urgent, "source": source,
						}))
					}
				}
			}
			if blockBacked {
				return blk.Events()
			}
			return maps
		},
	}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	return defs
}

// sameEvent holds two events to equality through every accessor,
// coercions and misses included.
func sameEvent(t *testing.T, tag string, a, b Event) {
	t.Helper()
	if a.Type != b.Type || a.Key != b.Key || a.Time != b.Time {
		t.Fatalf("%s: identity %v vs %v", tag, a, b)
	}
	for _, name := range []string{"level", "count", "urgent", "source", "absent"} {
		av, aok := a.Get(name)
		bv, bok := b.Get(name)
		if aok != bok || !reflect.DeepEqual(av, bv) {
			t.Errorf("%s: Get(%q) = %#v,%v vs %#v,%v", tag, name, av, aok, bv, bok)
		}
		af, afok := a.Float(name)
		bf, bfok := b.Float(name)
		ai, aiok := a.Int(name)
		bi, biok := b.Int(name)
		as, asok := a.Str(name)
		bs, bsok := b.Str(name)
		ab, abok := a.Bool(name)
		bb, bbok := b.Bool(name)
		if af != bf || afok != bfok || ai != bi || aiok != biok || as != bs || asok != bsok || ab != bb || abok != bbok {
			t.Errorf("%s: typed accessors of %q disagree", tag, name)
		}
	}
	if ca, cb := CanonicalAttrs(a), CanonicalAttrs(b); ca != cb {
		t.Errorf("%s: CanonicalAttrs %q vs %q", tag, ca, cb)
	}
}

// TestDerivedEventParity pins that a rule may derive its events as
// EventBlock views or as map-backed events without anything downstream
// noticing: accessors, canonical rendering (and with it the Fresh
// survivor), the snapshotted dedup set across a restore, and
// MergeResults all agree.
func TestDerivedEventParity(t *testing.T) {
	// The first fresh alarm is ping(a)@2: level 2.5, count 6, urgent. The
	// rendering is what picks Fresh survivors, so its format is pinned.
	const want = "count\x00i:6\x1elevel\x00f:4004000000000000\x1esource\x00s:alpha\x1eurgent\x00b:true\x1e"

	run := func(blockBacked bool) (results []*Result, seen []byte) {
		opts := Options{WorkingMemory: 20, Step: 10}
		e, err := NewEngine(parityDefs(t, blockBacked), opts)
		if err != nil {
			t.Fatal(err)
		}
		feed := func(e *Engine, q Time) {
			if err := e.Input(ev("ping", q-3, "a"), ev("ping", q-3, "b"), ev("ping", q-8, "a")); err != nil {
				t.Fatal(err)
			}
		}
		for q := Time(10); q <= 40; q += 10 {
			if q == 30 {
				// Restore mid-run through the codec and re-input what
				// arrived so far: the dedup set must come back, or the
				// overlap would be reported fresh again.
				var snap EngineSnapshot
				if err := snap.UnmarshalBinary(engineBytes(t, e)); err != nil {
					t.Fatal(err)
				}
				if e, err = NewEngine(parityDefs(t, blockBacked), opts); err != nil {
					t.Fatal(err)
				}
				if err := e.Restore(&snap); err != nil {
					t.Fatal(err)
				}
				for fed := Time(10); fed < q; fed += 10 {
					feed(e, fed)
				}
			}
			feed(e, q)
			res, err := e.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			results = append(results, res)
		}
		snap, err := e.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return results, snapBytes(t, &EngineSnapshot{Seen: snap.Seen})
	}

	blocks, blockSeen := run(true)
	maps, mapSeen := run(false)
	if !bytes.Equal(blockSeen, mapSeen) {
		t.Error("the snapshotted dedup sets differ")
	}
	for i := range blocks {
		b, m := blocks[i], maps[i]
		if len(b.Derived["alarm"]) != len(m.Derived["alarm"]) || len(b.Fresh) != len(m.Fresh) {
			t.Fatalf("Q=%d: %d derived/%d fresh block-backed, %d/%d map-backed", b.Q,
				len(b.Derived["alarm"]), len(b.Fresh), len(m.Derived["alarm"]), len(m.Fresh))
		}
		if len(b.Fresh) != 3 {
			t.Fatalf("Q=%d: %d fresh alarms, want the step's 3 identities once each", b.Q, len(b.Fresh))
		}
		for j := range b.Derived["alarm"] {
			sameEvent(t, "derived", b.Derived["alarm"][j], m.Derived["alarm"][j])
		}
		for j := range b.Fresh {
			sameEvent(t, "fresh", b.Fresh[j], m.Fresh[j])
			if src, _ := b.Fresh[j].Str("source"); src != "alpha" {
				t.Errorf("Q=%d: fresh survivor has source %q, want the canonical smallest", b.Q, src)
			}
		}
	}
	if got := CanonicalAttrs(blocks[0].Fresh[0]); got != want {
		t.Errorf("CanonicalAttrs = %q, want %q", got, want)
	}

	// Merging a block-backed result with a map-backed one is merging two
	// of either kind.
	mixed := MergeResults([]*Result{blocks[3], maps[3]})
	plain := MergeResults([]*Result{maps[3], maps[3]})
	if len(mixed.Derived["alarm"]) != 2*len(maps[3].Derived["alarm"]) {
		t.Fatalf("merged %d alarms from 2x%d", len(mixed.Derived["alarm"]), len(maps[3].Derived["alarm"]))
	}
	for j := range mixed.Derived["alarm"] {
		sameEvent(t, "merged derived", mixed.Derived["alarm"][j], plain.Derived["alarm"][j])
	}
	for j := range mixed.Fresh {
		sameEvent(t, "merged fresh", mixed.Fresh[j], plain.Fresh[j])
	}
}

func TestEventBlockRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("an event without a cell in a declared column must panic")
		}
	}()
	b := NewEventBlock("x", BCol{Name: "a", Kind: ColFloat}, BCol{Name: "b", Kind: ColStr})
	b.Add(1, "k")
	b.Float(0, 1)
	b.Events()
}

func TestSortEventsOrdersOnlyWhatIsUnsorted(t *testing.T) {
	mk := func(spec ...any) []Event {
		var out []Event
		for i := 0; i < len(spec); i += 2 {
			out = append(out, NewEvent("t", Time(spec[i].(int)), spec[i+1].(string), map[string]any{"n": i / 2}))
		}
		return out
	}
	order := func(evs []Event) (out []int) {
		for _, e := range evs {
			n, _ := e.Get("n")
			out = append(out, n.(int))
		}
		return out
	}
	for _, tc := range []struct {
		name string
		in   []Event
		want []int
	}{
		{"sorted", mk(1, "a", 1, "b", 2, "a"), []int{0, 1, 2}},
		{"tie runs", mk(1, "b", 1, "a", 2, "c", 2, "c", 2, "a", 3, "z"), []int{1, 0, 4, 2, 3, 5}},
		{"not time-ordered, stable", mk(5, "a", 7, "a", 5, "b", 5, "a", 1, "q"), []int{4, 0, 3, 2, 1}},
	} {
		sortEvents(tc.in)
		if got := order(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: order %v, want %v", tc.name, got, tc.want)
		}
	}
	merged := mergeEvents([][]Event{mk(1, "b", 3, "a"), nil, mk(1, "a", 1, "b", 4, "a")})
	if got := order(merged); !reflect.DeepEqual(got, []int{0, 0, 1, 1, 2}) {
		t.Errorf("mergeEvents order %v", got)
	}
}

func TestSeenSetPrune(t *testing.T) {
	all := map[string]bool{"": true, "x": true, "xy": true, "y": true, "disagree": true}
	s := newSeenSet()
	for _, tm := range []Time{-5, -4, 0, 1, 2, 3, 10} {
		if !s.Add("x", "k", tm) || s.Add("x", "k", tm) {
			t.Fatalf("Add(%d) must report new exactly once", tm)
		}
	}
	s.Add("y", "k", 1)
	s.Prune(2)
	want := []SeenEntry{{"x", "k", 3}, {"x", "k", 10}}
	if got := s.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("after Prune(2): %v, want %v", got, want)
	}
	if !s.Has("x", "k", 3) || s.Has("x", "k", 2) || s.Has("x", "j", 3) || s.Has("z", "k", 3) {
		t.Error("Has disagrees with Entries after Prune(2)")
	}
	if !s.Add("y", "k", 1) {
		t.Error("a pruned identity must be new again")
	}
	restored := newSeenSet()
	restored.Restore(s.Entries(), all)
	if !reflect.DeepEqual(restored.Entries(), s.Entries()) {
		t.Error("Restore(Entries()) does not round-trip")
	}

	// Snapshot order is (type, key, time) by bytes: empty strings,
	// prefixes of one another, a NUL, upper before lower case, bytes
	// above ASCII; negative times, equal times across keys and types, and
	// times 2^40 apart.
	const far = Time(1) << 40
	s = newSeenSet()
	for _, e := range []SeenEntry{
		{"xy", "\xff", -3}, {"x", "a", 5}, {"", "é", 0}, {"disagree", "I17", -3 * far},
		{"x", "a\x00", 5}, {"x", "ab", 5}, {"x", "a", -7}, {"x", "i17", 7 * far},
		{"xy", "I17", 5}, {"", "a", 5}, {"disagree", "i17", 5}, {"x", "a", 2 * far},
		{"x", "\xff", -far}, {"xy", "é", -1}, {"", "é", -far}, {"disagree", "I17", 5},
		{"x", "I17", 5}, {"x", "ab", -2},
	} {
		if !s.Add(e.Type, e.Key, e.Time) || s.Add(e.Type, e.Key, e.Time) {
			t.Fatalf("Add(%#v) must report new exactly once", e)
		}
	}
	want = []SeenEntry{
		{"", "a", 5}, {"", "é", -far}, {"", "é", 0},
		{"disagree", "I17", -3 * far}, {"disagree", "I17", 5}, {"disagree", "i17", 5},
		{"x", "I17", 5}, {"x", "a", -7}, {"x", "a", 5}, {"x", "a", 2 * far}, {"x", "a\x00", 5},
		{"x", "ab", -2}, {"x", "ab", 5}, {"x", "i17", 7 * far}, {"x", "\xff", -far},
		{"xy", "I17", 5}, {"xy", "é", -1}, {"xy", "\xff", -3},
	}
	if got := s.Entries(); !slices.Equal(got, want) {
		t.Fatalf("Entries = %#v\nwant %#v", got, want)
	}
	s.Prune(-2)
	want = []SeenEntry{
		{"", "a", 5}, {"", "é", 0},
		{"disagree", "I17", 5}, {"disagree", "i17", 5},
		{"x", "I17", 5}, {"x", "a", 5}, {"x", "a", 2 * far}, {"x", "a\x00", 5},
		{"x", "ab", 5}, {"x", "i17", 7 * far},
		{"xy", "I17", 5}, {"xy", "é", -1},
	}
	if got := s.Entries(); !slices.Equal(got, want) {
		t.Fatalf("after Prune(-2): %#v\nwant %#v", got, want)
	}
	restored = newSeenSet()
	restored.Restore(s.Entries(), all)
	if got := restored.Entries(); !slices.Equal(got, want) {
		t.Errorf("Restore(Entries()) = %#v\nwant %#v", got, want)
	}
	delete(all, "disagree")
	restored.Restore(s.Entries(), all)
	want = slices.Concat(want[:2], want[4:])
	if got := restored.Entries(); !slices.Equal(got, want) {
		t.Errorf("Restore of every output but disagree = %#v\nwant %#v", got, want)
	}
	if restored.Has("disagree", "I17", 5) || !restored.Has("xy", "é", -1) {
		t.Error("Has disagrees with Entries after a Restore that drops a type")
	}
}

// TestDerivedByKeyConcurrentReaders pins the lazily built per-key index
// of a derived type: rules of one stratum look the type up by key from
// several goroutines at once, and see what a serial evaluation sees.
func TestDerivedByKeyConcurrentReaders(t *testing.T) {
	b := NewBuilder().DeclareSDE("ping").Event(EventRule{
		Name:   "echo",
		Inputs: []string{"ping"},
		Derive: func(ctx *Context) []Event {
			var out []Event
			for _, e := range ctx.Events("ping") {
				out = append(out, NewEvent("echo", e.Time, e.Key, nil))
			}
			return out
		},
	})
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		b.Event(EventRule{
			Name:   name,
			Inputs: []string{"echo"},
			Derive: func(ctx *Context) []Event {
				var out []Event
				for _, key := range ctx.EventKeys("echo") {
					rows := ctx.RowsForKey("echo", key)
					out = append(out, NewEvent(name, rows.TimeAt(rows.Len()-1), key, map[string]any{"n": rows.Len()}))
				}
				return out
			},
		})
	}
	defs, err := b.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Result {
		e, err := NewEngine(defs, Options{WorkingMemory: 100, RuleWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 200; i++ {
			if err := e.Input(ev("ping", Time(1+i%90), string(rune('a'+i%7)))); err != nil {
				t.Fatal(err)
			}
		}
		res, err := e.Query(100)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(4)
	for _, name := range []string{"r1", "r2", "r3", "r4"} {
		s, p := serial.Derived[name], parallel.Derived[name]
		if len(s) != 7 || len(p) != len(s) {
			t.Fatalf("%s: %d events serial, %d parallel, want 7", name, len(s), len(p))
		}
		for i := range s {
			sameIdentity := s[i].Key == p[i].Key && s[i].Time == p[i].Time
			if !sameIdentity || CanonicalAttrs(s[i]) != CanonicalAttrs(p[i]) {
				t.Errorf("%s[%d]: %v vs %v", name, i, s[i], p[i])
			}
		}
	}
}
