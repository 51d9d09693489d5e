package rtec

import (
	"reflect"
	"slices"
	"testing"
)

func testBlock() *Block {
	return &Block{
		Type:  "reading",
		Times: []int64{10, 20, 30},
		Keys:  []string{"s1", "s2", "s1"},
		Cols: []BCol{
			{Name: "level", Kind: ColFloat, F: []float64{0.25, 0.75, 0.9}},
			{Name: "count", Kind: ColInt, I: []int64{3, 7, -2}},
			{Name: "alarm", Kind: ColBool, B: []bool{false, true, true}},
			{Name: "zone", Kind: ColStr, SIdx: []uint32{0, 1, 0}, Dict: []string{"north", "south"}},
		},
	}
}

// mapTwin builds the map-backed event with the same attributes as row
// i of the block — the representation the view must be behaviourally
// identical to.
func mapTwin(b *Block, i int) Event {
	return NewEvent(b.Type, Time(b.Times[i]), b.Keys[i], map[string]any{
		"level": b.Cols[0].F[i],
		"count": b.Cols[1].I[i],
		"alarm": b.Cols[2].B[i],
		"zone":  b.Cols[3].Dict[b.Cols[3].SIdx[i]],
	})
}

func TestBlockViewAccessorParity(t *testing.T) {
	b := testBlock()
	for i := 0; i < b.Len(); i++ {
		view, twin := b.Event(i), mapTwin(b, i)
		if view.Type != twin.Type || view.Time != twin.Time || view.Key != twin.Key {
			t.Fatalf("row %d header: view %v, twin %v", i, view, twin)
		}
		for _, name := range []string{"level", "count", "alarm", "zone", "missing"} {
			gv, gok := view.Get(name)
			wv, wok := twin.Get(name)
			if gv != wv || gok != wok {
				t.Errorf("row %d Get(%q) = (%v, %v), want (%v, %v)", i, name, gv, gok, wv, wok)
			}
			ff, fok := view.Float(name)
			wf, wfok := twin.Float(name)
			if ff != wf || fok != wfok {
				t.Errorf("row %d Float(%q) = (%v, %v), want (%v, %v)", i, name, ff, fok, wf, wfok)
			}
			fi, iok := view.Int(name)
			wi, wiok := twin.Int(name)
			if fi != wi || iok != wiok {
				t.Errorf("row %d Int(%q) = (%v, %v), want (%v, %v)", i, name, fi, iok, wi, wiok)
			}
			fs, sok := view.Str(name)
			ws, wsok := twin.Str(name)
			if fs != ws || sok != wsok {
				t.Errorf("row %d Str(%q) = (%v, %v), want (%v, %v)", i, name, fs, sok, ws, wsok)
			}
			fb, bok := view.Bool(name)
			wb, wbok := twin.Bool(name)
			if fb != wb || bok != wbok {
				t.Errorf("row %d Bool(%q) = (%v, %v), want (%v, %v)", i, name, fb, bok, wb, wbok)
			}
		}
	}
}

func TestBlockViewCrossKindCoercion(t *testing.T) {
	b := testBlock()
	view := b.Event(2)
	// Float over an int column converts.
	if f, ok := view.Float("count"); !ok || f != -2 {
		t.Errorf("Float(count) = (%v, %v), want (-2, true)", f, ok)
	}
	// Int over a float column truncates toward zero.
	if n, ok := view.Int("level"); !ok || n != 0 {
		t.Errorf("Int(level) = (%v, %v), want (0, true)", n, ok)
	}
	// Str and Bool do not coerce across kinds.
	if _, ok := view.Str("count"); ok {
		t.Error("Str(count) succeeded on an int column")
	}
	if _, ok := view.Bool("level"); ok {
		t.Error("Bool(level) succeeded on a float column")
	}
}

// levelDefs recognises an "alert" fluent keyed by sensor, initiated
// when level > 0.5 and alarm is set, terminated when the zone reads
// "north" with a non-negative count — exercising every accessor kind
// inside a rule.
func levelDefs(t *testing.T) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Simple(SimpleFluent{
			Name:   "alert",
			Inputs: []string{"reading"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
				for _, e := range ctx.Events("reading") {
					level, _ := e.Float("level")
					alarm, _ := e.Bool("alarm")
					zone, _ := e.Str("zone")
					count, _ := e.Int("count")
					if level > 0.5 && alarm {
						out = append(out, InitiateAt(e.Key, e.Time))
					}
					if zone == "north" && count >= 0 {
						out = append(out, TerminateAt(e.Key, e.Time))
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

// TestInputBlockMatchesInput feeds the same event sequence per-item
// and as column blocks — across several query boundaries, so the
// too-old filter and the late flag both trigger — and demands
// identical recognition output.
func TestInputBlockMatchesInput(t *testing.T) {
	opts := Options{WorkingMemory: 40, Step: 20}
	mkEngine := func() *Engine {
		e, err := NewEngine(levelDefs(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	type row struct {
		t     int64
		key   string
		level float64
		count int64
		alarm bool
		zone  string
	}
	chunks := [][]row{
		{{5, "s1", 0.8, 1, true, "south"}, {12, "s2", 0.3, 2, false, "south"}},
		{{18, "s1", 0.2, 0, false, "north"}, {3, "s2", 0.9, -1, true, "south"}}, // t=3: late after Q=20
		{{1, "s1", 0.9, 1, true, "south"}, {55, "s2", 0.7, 5, true, "south"}},   // t=1: too old after Q=40
	}
	queries := []Time{20, 40, 60}

	block := func(rs []row) *Block {
		b := &Block{Type: "reading", Cols: []BCol{
			{Name: "level", Kind: ColFloat},
			{Name: "count", Kind: ColInt},
			{Name: "alarm", Kind: ColBool},
			{Name: "zone", Kind: ColStr},
		}}
		dict := map[string]uint32{}
		for _, r := range rs {
			b.Times = append(b.Times, r.t)
			b.Keys = append(b.Keys, r.key)
			b.Cols[0].F = append(b.Cols[0].F, r.level)
			b.Cols[1].I = append(b.Cols[1].I, r.count)
			b.Cols[2].B = append(b.Cols[2].B, r.alarm)
			idx, ok := dict[r.zone]
			if !ok {
				idx = uint32(len(b.Cols[3].Dict))
				b.Cols[3].Dict = append(b.Cols[3].Dict, r.zone)
				dict[r.zone] = idx
			}
			b.Cols[3].SIdx = append(b.Cols[3].SIdx, idx)
		}
		return b
	}
	events := func(rs []row) []Event {
		out := make([]Event, len(rs))
		for i, r := range rs {
			out[i] = NewEvent("reading", Time(r.t), r.key, map[string]any{
				"level": r.level, "count": r.count, "alarm": r.alarm, "zone": r.zone,
			})
		}
		return out
	}

	itemEng, blockEng := mkEngine(), mkEngine()
	for ci, rs := range chunks {
		if err := itemEng.Input(events(rs)...); err != nil {
			t.Fatal(err)
		}
		if err := blockEng.InputBlockRows(block(rs), nil); err != nil {
			t.Fatal(err)
		}
		ri, err := itemEng.Query(queries[ci])
		if err != nil {
			t.Fatal(err)
		}
		rb, err := blockEng.Query(queries[ci])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ri.Fluents, rb.Fluents) {
			t.Errorf("Q=%d fluents differ:\nitem:  %v\nblock: %v", queries[ci], ri.Fluents, rb.Fluents)
		}
		if ri.Stats.InputEvents != rb.Stats.InputEvents {
			t.Errorf("Q=%d input events: item %d, block %d", queries[ci], ri.Stats.InputEvents, rb.Stats.InputEvents)
		}
	}
}

// TestInputBlockRejectsUndeclared mirrors Input's type check.
func TestInputBlockRejectsUndeclared(t *testing.T) {
	e, err := NewEngine(levelDefs(t), Options{WorkingMemory: 40})
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{Type: "ghost", Times: []int64{1}, Keys: []string{"k"}}
	if err := e.InputBlockRows(b, nil); err == nil {
		t.Fatal("undeclared SDE type accepted")
	}
}

// TestInputBlockCopies checks the engine owns its rows: mutating the
// source block after InputBlockRows must not change recognition.
func TestInputBlockCopies(t *testing.T) {
	e, err := NewEngine(levelDefs(t), Options{WorkingMemory: 40, Step: 20})
	if err != nil {
		t.Fatal(err)
	}
	b := &Block{
		Type:  "reading",
		Times: []int64{5},
		Keys:  []string{"s1"},
		Cols: []BCol{
			{Name: "level", Kind: ColFloat, F: []float64{0.8}},
			{Name: "count", Kind: ColInt, I: []int64{1}},
			{Name: "alarm", Kind: ColBool, B: []bool{true}},
			{Name: "zone", Kind: ColStr, SIdx: []uint32{0}, Dict: []string{"south"}},
		},
	}
	if err := e.InputBlockRows(b, nil); err != nil {
		t.Fatal(err)
	}
	// Scribble over the caller's block: recycle simulation.
	b.Times[0] = 0
	b.Keys[0] = "zzz"
	b.Cols[0].F[0] = 0
	b.Cols[2].B[0] = false
	res, err := e.Query(20)
	if err != nil {
		t.Fatal(err)
	}
	iv, ok := res.Fluents["alert"][KV{Key: "s1", Value: TrueValue}]
	if !ok || len(iv) == 0 {
		t.Fatalf("alert fluent missing after source block mutation: %v", res.Fluents)
	}
}

// TestColumnHandleMatchesAt holds every accessor of a Rows.Col handle to
// the same accessor of At(i), on every row of every view: the column
// store's segment views and a derived-events view's event slices, Rows
// and RowsForKey. The rows give the resident segment every column shape a
// handle can meet — packed float, int, Go int, string, bool and list
// columns, a column absent from some rows (a Present mask), a boxed
// ColAny column mixing float64, int, int64, string, bool and list
// values — and the names include one no row carries; reading each name
// through every accessor exercises the int↔float coercions both ways.
// The two views' answers must also agree row for row.
func TestColumnHandleMatchesAt(t *testing.T) {
	attrs := []map[string]any{
		{"level": 0.25, "count": int64(3), "n": 4, "zone": "north", "alarm": true, "close": []int32{1, 4}, "mixed": 2.75},
		{"level": 0.75, "n": -1, "zone": "south", "alarm": false, "close": []int32{}, "mixed": 7},
		{"level": -1.5, "count": int64(-2), "n": 0, "zone": "north", "alarm": true, "close": []int32{2}, "mixed": int64(-9)},
		{"level": 3.0, "count": int64(8), "n": 12, "zone": "east", "alarm": false, "close": []int32{0, 3}, "mixed": "busy"},
		{"level": 0.5, "n": 5, "zone": "south", "alarm": true, "close": []int32{5}, "mixed": true},
		{"level": 9.9, "count": int64(1), "n": 2, "zone": "west", "alarm": false, "close": []int32{6}, "mixed": []int32{7, 8}},
	}
	keys := []string{"s1", "s2", "s1", "s3", "s2", "s1"}
	names := []string{"level", "count", "n", "zone", "alarm", "close", "mixed", "missing"}
	window := Span{Start: 1, End: 100}

	type read struct {
		key          string
		t            Time
		f            float64
		fok          bool
		i            int64
		iok          bool
		b, bok       bool
		s            string
		sok          bool
		l            []int32
		lok          bool
		view, column string
	}
	// readAll reads every name of every row of one view through the
	// handle, failing where it differs from At(i)'s accessor.
	readAll := func(label string, rows Rows) []read {
		var out []read
		for _, name := range names {
			h := rows.Col(name)
			for i := 0; i < rows.Len(); i++ {
				e := rows.At(i)
				r := read{key: rows.KeyAt(i), t: rows.TimeAt(i), view: label, column: name}
				if r.key != e.Key || r.t != e.Time {
					t.Errorf("%s row %d: KeyAt, TimeAt = %s, %d; At = %s, %d", label, i, r.key, r.t, e.Key, e.Time)
				}
				r.f, r.fok = h.Float(i)
				if f, ok := e.Float(name); r.f != f || r.fok != ok {
					t.Errorf("%s row %d Float(%q): handle (%v, %v), At (%v, %v)", label, i, name, r.f, r.fok, f, ok)
				}
				r.i, r.iok = h.Int(i)
				if n, ok := e.Int(name); r.i != n || r.iok != ok {
					t.Errorf("%s row %d Int(%q): handle (%v, %v), At (%v, %v)", label, i, name, r.i, r.iok, n, ok)
				}
				r.b, r.bok = h.Bool(i)
				if b, ok := e.Bool(name); r.b != b || r.bok != ok {
					t.Errorf("%s row %d Bool(%q): handle (%v, %v), At (%v, %v)", label, i, name, r.b, r.bok, b, ok)
				}
				r.s, r.sok = h.Str(i)
				if s, ok := e.Str(name); r.s != s || r.sok != ok {
					t.Errorf("%s row %d Str(%q): handle (%q, %v), At (%q, %v)", label, i, name, r.s, r.sok, s, ok)
				}
				r.l, r.lok = h.IntList(i)
				if l, ok := e.IntList(name); !slices.Equal(r.l, l) || r.lok != ok {
					t.Errorf("%s row %d IntList(%q): handle (%v, %v), At (%v, %v)", label, i, name, r.l, r.lok, l, ok)
				}
				out = append(out, r)
			}
		}
		return out
	}

	var got [2][]read
	for si, onStore := range []bool{true, false} {
		var ctx *Context
		if onStore {
			store := newColumnStore()
			for i, a := range attrs {
				store.insert(NewEvent("reading", Time(10*(len(attrs)-i)), keys[i], a), false)
			}
			ctx = newStoreContext(99, window, store)
		} else {
			// The same rows as derived events: a time-sorted slice.
			evs := make([]Event, len(attrs))
			for i, a := range attrs {
				evs[len(attrs)-1-i] = NewEvent("reading", Time(10*(len(attrs)-i)), keys[i], a)
			}
			ctx = newContext(99, window)
			ctx.addEvents("reading", evs)
		}
		rows := ctx.Rows("reading")
		if rows.Len() != len(attrs) {
			t.Fatalf("view %d: %d rows, want %d", si, rows.Len(), len(attrs))
		}
		if onStore {
			// The segment has the shapes the test is about.
			if rows.seg == nil {
				t.Fatal("column-store view is not over its segment")
			}
			kinds := map[string]ColKind{}
			for _, c := range rows.seg.blk.Cols {
				kinds[c.Name] = c.Kind
				if c.Name == "count" && c.Present == nil {
					t.Error("count has no Present mask: no absent cell is read")
				}
			}
			for name, want := range map[string]ColKind{"level": ColFloat, "count": ColInt, "n": ColIntGo, "zone": ColStr, "alarm": ColBool, "close": ColIntList, "mixed": ColAny} {
				if kinds[name] != want {
					t.Errorf("segment column %q is kind %d, want %d", name, kinds[name], want)
				}
			}
		} else if rows.seg != nil {
			t.Fatal("derived-events view is over a segment")
		}
		got[si] = readAll("Rows", rows)
		for _, key := range []string{"s1", "s2", "s3", "nobody"} {
			got[si] = append(got[si], readAll("RowsForKey("+key+")", ctx.RowsForKey("reading", key))...)
		}
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("column-store and derived-events handles differ:\n column  %+v\n derived %+v", got[0], got[1])
	}
	if len(got[0]) != 2*len(attrs)*len(names) {
		t.Errorf("%d reads, want %d", len(got[0]), 2*len(attrs)*len(names))
	}
}
