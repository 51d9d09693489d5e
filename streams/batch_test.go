package streams

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

func mkBatch(typ, source string, n int) *Batch {
	b := GetBatch(typ, source)
	for i := 0; i < n; i++ {
		b.Append(int64(100+i), int64(110+i), fmt.Sprintf("k%d", i%3))
		b.FloatCol("density").AppendFloat(float64(i) / 10)
		b.IntCol("delay").AppendInt(int64(i * 2))
		b.BoolCol("congested").AppendBool(i%2 == 0)
		b.StrCol("line").AppendStr(fmt.Sprintf("L%d", i%2))
	}
	return b
}

func TestBatchRoundTrip(t *testing.T) {
	b := mkBatch("move", "bus", 5)
	defer b.Release()
	if err := b.Check(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 {
		t.Fatalf("len = %d, want 5", b.Len())
	}
	it := b.ItemAt(3)
	if got := it.String(RowType); got != "move" {
		t.Errorf("type = %q", got)
	}
	if got := intOf(it, RowTime); got != 103 {
		t.Errorf("time = %d", got)
	}
	if got := intOf(it, RowArrival); got != 113 {
		t.Errorf("arrival = %d", got)
	}
	if got := it.String(RowKey); got != "k0" {
		t.Errorf("key = %q", got)
	}
	if got := it.String(RowSource); got != "bus" {
		t.Errorf("source = %q", got)
	}
	if got := it.Float("density"); got != 0.3 {
		t.Errorf("density = %v", got)
	}
	if got := intOf(it, "delay"); got != 6 {
		t.Errorf("delay = %d", got)
	}
	if it.Bool("congested") {
		t.Error("congested = true, want false")
	}
	if got := it.String("line"); got != "L1" {
		t.Errorf("line = %q", got)
	}
	// The string dictionary interns: 2 distinct values over 5 rows.
	if got := len(b.StrCol("line").Dict); got != 2 {
		t.Errorf("line dict size = %d, want 2", got)
	}
}

func TestBatchAppendRowFrom(t *testing.T) {
	src := mkBatch("move", "bus", 4)
	dst := GetBatch("move", "bus")
	dst.AppendRowFrom(src, 2)
	dst.AppendRowFrom(src, 0)
	if err := dst.Check(); err != nil {
		t.Fatal(err)
	}
	want := src.ItemAt(2)
	got := dst.ItemAt(0)
	for k, v := range want {
		if got[k] != v {
			t.Errorf("row copy: %s = %v, want %v", k, got[k], v)
		}
	}
	src.Release()
	dst.Release()
}

// TestBatchGrow: after the first row has laid out the columns, Grow
// sizes the row slices and every column for the rows to come.
func TestBatchGrow(t *testing.T) {
	b := mkBatch("move", "grow-test", 1)
	defer b.Release()
	b.Grow(63)
	caps := map[string]int{"Times": cap(b.Times), "Arrivals": cap(b.Arrivals), "Keys": cap(b.Keys), "KIdx": cap(b.KIdx)}
	for _, c := range b.Cols {
		caps[c.Name] = max(cap(c.F), cap(c.I), cap(c.B), cap(c.SIdx))
	}
	for name, c := range caps {
		if c < 64 {
			t.Errorf("%s: capacity %d after Grow(63) on one row, want >= 64", name, c)
		}
	}
	if b.Len() != 1 {
		t.Errorf("Grow changed the row count to %d", b.Len())
	}
}

func TestBatchEnvelope(t *testing.T) {
	b := NewBatch("traffic", "scats-north")
	it := BatchItem(b)
	got, ok := ItemBatch(it)
	if !ok || got != b {
		t.Fatal("envelope round-trip failed")
	}
	if _, ok := ItemBatch(Item{"x": 1}); ok {
		t.Fatal("plain item mistaken for envelope")
	}
}

func TestBatchUseAfterReleasePanics(t *testing.T) {
	for name, use := range map[string]func(*Batch){
		"Append":        func(b *Batch) { b.Append(1, 2, "k") },
		"ItemAt":        func(b *Batch) { b.ItemAt(0) },
		"AppendRowFrom": func(b *Batch) { NewBatch("move", "x").AppendRowFrom(b, 0) },
		"Release":       func(b *Batch) { b.Release() },
	} {
		b := mkBatch("move", "panic-test", 1)
		b.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on released batch did not panic", name)
				}
			}()
			use(b)
		}()
	}
}

func TestBatchPoolRecyclesSchema(t *testing.T) {
	before := LiveBatches()
	b := mkBatch("move", "pool-test", 3)
	if got := LiveBatches(); got != before+1 {
		t.Fatalf("live = %d, want %d", got, before+1)
	}
	dict := len(b.StrCol("line").Dict)
	b.Release()
	if got := LiveBatches(); got != before {
		t.Fatalf("live after release = %d, want %d", got, before)
	}
	// The recycled buffer keeps the column layout and dictionary but
	// no rows.
	b2 := GetBatch("move", "pool-test")
	defer b2.Release()
	if b2.Len() != 0 {
		t.Fatalf("recycled batch has %d rows", b2.Len())
	}
	if b2 == b { // same buffer came back: schema must have survived
		if got := len(b2.StrCol("line").Dict); got != dict {
			t.Errorf("recycled dict size = %d, want %d", got, dict)
		}
	}
}

// TestBatchExpansionThroughChain pipes a batch through a process whose
// processors are not batch-aware: the chain must expand the rows into
// compatibility items, pipe each through, and release the batch.
func TestBatchExpansionThroughChain(t *testing.T) {
	before := LiveBatches()
	b := mkBatch("move", "expand-test", 4)
	drop := ProcessorFunc(func(it Item) (Item, error) {
		if it.Bool("congested") {
			return nil, nil
		}
		return it, nil
	})
	sink := NewCollectorSink()
	p := &Process{Name: "expand", Input: NewSliceSource(BatchItem(b)), Processors: []Processor{drop}, Output: sink}
	if err := p.run(context.Background(), newSupervisor([]*Process{p})); err != nil {
		t.Fatal(err)
	}
	// Rows 1 and 3 survive (congested = i%2==0 drops 0 and 2).
	items := sink.Items()
	if len(items) != 2 {
		t.Fatalf("got %d items, want 2", len(items))
	}
	if got := intOf(items[0], RowTime); got != 101 {
		t.Errorf("first surviving row time = %d, want 101", got)
	}
	if got := LiveBatches(); got != before {
		t.Errorf("live batches = %d, want %d (expanded batch must be released)", got, before)
	}
}

// TestBatchAwareProcessorOwnership checks a BatchProcessor in the
// chain receives the whole batch and its outputs flow on.
func TestBatchAwareProcessorOwnership(t *testing.T) {
	before := LiveBatches()
	b := mkBatch("move", "aware-test", 3)
	sink := NewCollectorSink()
	sum := &summingBatchProcessor{}
	p := &Process{Name: "aware", Input: NewSliceSource(BatchItem(b)), Processors: []Processor{sum}, Output: sink}
	if err := p.run(context.Background(), newSupervisor([]*Process{p})); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	if len(items) != 1 || intOf(items[0], "rows") != 3 {
		t.Fatalf("items = %v, want one summary of 3 rows", items)
	}
	if got := LiveBatches(); got != before {
		t.Errorf("live batches = %d, want %d", got, before)
	}
}

type summingBatchProcessor struct{}

func (summingBatchProcessor) Process(it Item) (Item, error) { return it, nil }

func (summingBatchProcessor) ProcessBatch(b *Batch) ([]Item, error) {
	n := b.Len()
	b.Release()
	return []Item{{"rows": int64(n)}}, nil
}

// TestChaosBatchRowFaulting checks row-level drop/dup faulting over
// batched transport consumes the same rng draws as per-item faulting:
// the surviving rows must be exactly the surviving items.
func TestChaosBatchRowFaulting(t *testing.T) {
	const n = 200
	spec := FaultSpec{Seed: 42, DropProb: 0.2, DupProb: 0.1}

	// Per-item reference.
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{"i": int64(i)}
	}
	ref := NewChaosSource(NewSliceSource(items...), spec)
	var want []int64
	for {
		it, ok := ref.Read()
		if !ok {
			break
		}
		want = append(want, intOf(it, "i"))
	}

	// Batched: the same 200 events in 4 batches of 50.
	before := LiveBatches()
	var envs []Item
	for bi := 0; bi < 4; bi++ {
		b := GetBatch("t", "chaos-batch-test")
		for i := 0; i < 50; i++ {
			b.Append(int64(bi*50+i), int64(bi*50+i), "k")
		}
		envs = append(envs, BatchItem(b))
	}
	cs := NewChaosSource(NewSliceSource(envs...), spec)
	var got []int64
	for {
		it, ok := cs.Read()
		if !ok {
			break
		}
		fb, isBatch := ItemBatch(it)
		if !isBatch {
			t.Fatalf("chaos emitted a non-batch item: %v", it)
		}
		got = append(got, fb.Times...)
		fb.Release()
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("faulted rows = %v\nwant %v", got, want)
	}
	st := cs.Stats()
	if st.Dropped == 0 || st.Duplicated == 0 {
		t.Errorf("stats = %+v, want drops and dups", st)
	}
	if live := LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d", live, before)
	}
}

// TestBatchCheckIndexes: Check refuses every index a reader would
// follow out of bounds — a string index past its column dictionary, a
// list offset below its predecessor or ending short of or past the
// values, a negative list value, a kind byte no reader knows.
func TestBatchCheckIndexes(t *testing.T) {
	mk := func() *Batch {
		b := NewBatch("move", "bus")
		for i := 0; i < 3; i++ {
			b.Append(int64(i), int64(i), "k")
			b.StrCol("line").AppendStr(fmt.Sprintf("L%d", i))
			b.ListCol("close").AppendList([]int32{int32(i), int32(i + 4)}[:i]...)
		}
		return b
	}
	if err := mk().Check(); err != nil {
		t.Fatalf("valid batch refused: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(b *Batch)
		want   string
	}{
		{"string index past dictionary", func(b *Batch) { b.Col("line").SIdx[1] = 3 }, "outside dictionary"},
		{"list offsets decrease", func(b *Batch) { c := b.Col("close"); c.Ends[1], c.Ends[2] = 3, 2 }, "below the previous"},
		{"list offsets end short", func(b *Batch) { c := b.Col("close"); c.L = append(c.L, 9) }, "offsets end at"},
		{"list offsets end past values", func(b *Batch) { c := b.Col("close"); c.L = c.L[:2] }, "offsets end at"},
		{"negative list value", func(b *Batch) { b.Col("close").L[0] = -1 }, "negative"},
		{"unknown kind", func(b *Batch) { b.Col("line").Kind = 9 }, "unknown column kind"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := mk()
			tc.mutate(b)
			if err := b.Check(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Check = %v, want an error about %q", err, tc.want)
			}
		})
	}
}

// TestBatchUnfilledListColumn: a recycled batch refilled by its producer
// carries its stage-owned list column empty. Check refuses it, but row
// copies and item views leave it out instead of indexing rows it lacks,
// and a refilled copy reads back the lists once the stage has run.
func TestBatchUnfilledListColumn(t *testing.T) {
	b := GetBatch("move", "unfilled-test")
	b.Append(1, 1, "k")
	b.FloatCol("lon").AppendFloat(1)
	b.ListCol("close").AppendList(4, 7)
	b.Release()
	b = GetBatch("move", "unfilled-test")
	defer b.Release()
	b.Append(2, 2, "k")
	b.FloatCol("lon").AppendFloat(2)
	c := b.Col("close")
	if c == nil {
		t.Skip("the pool handed back a fresh batch")
	}
	if !c.Unfilled() || b.Check() == nil {
		t.Fatalf("recycled close column: unfilled %v, Check %v", c.Unfilled(), b.Check())
	}
	cp := NewBatch("move", "copy")
	cp.AppendRowFrom(b, 0)
	if cp.Col("close") != nil || cp.Check() != nil {
		t.Fatalf("AppendRowFrom copied the unfilled column: %+v", cp.Cols)
	}
	if _, has := b.ItemAt(0)["close"]; has {
		t.Fatal("ItemAt materialized the unfilled column")
	}
	c.AppendList(3)
	filled := NewBatch("move", "copy")
	filled.AppendRowFrom(b, 0)
	if got := filled.Col("close"); got == nil || fmt.Sprint(got.List(0)) != "[3]" || filled.Check() != nil {
		t.Fatalf("filled column copied as %+v", got)
	}
}
