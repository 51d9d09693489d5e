package rtec

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
)

// colEquivDefs exercises every window access path a store must serve —
// Rows, RowsForKey, EventKeys, the materializing Events/RowsForKey(...).Slice()
// compatibility API, and all accessor kinds — plus a second stratum
// reading derived events through the Rows view.
func colEquivDefs(t testing.TB) *Definitions {
	t.Helper()
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Simple(SimpleFluent{
			Name:   "alert",
			Inputs: []string{"reading"},
			Transitions: func(ctx *Context, out []Transition) []Transition {
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
						out = append(out, NewEvent("spike", rows.TimeAt(i), rows.At(i).Key, nil))
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
					evs := ctx.RowsForKey("spike", key).Slice()
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

// equivEngine is one column-store engine and the way the equivalence
// tests deliver to it.
type equivEngine struct {
	name  string
	e     *Engine
	block bool // deliver via InputBlockRows rather than Input
	kidx  bool // blocks carry a key dictionary
}

// newEquivEngines builds one engine per delivery mode: per event, and
// as blocks with and without a key dictionary.
func newEquivEngines(t testing.TB, opts Options) []equivEngine {
	t.Helper()
	mk := func() *Engine {
		e, err := NewEngine(colEquivDefs(t), opts)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return []equivEngine{
		{name: "item", e: mk()},
		{name: "block", e: mk(), block: true, kidx: true},
		{name: "block-nokidx", e: mk(), block: true},
	}
}

func deliverChunk(t testing.TB, ee equivEngine, chunk []equivRow) {
	t.Helper()
	if ee.block {
		if err := ee.e.InputBlockRows(rowsToBlock(chunk, ee.kidx), nil); err != nil {
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

// bucketModel is the working memory by definition: every filed row
// whose time is after the last query's cutoff, in (time, arrival)
// order. A row the engine drops as too old is never filed.
type bucketModel struct {
	wm      Time
	lastQ   Time
	started bool
	rows    []equivRow // filed, in arrival order
}

// file records a delivered chunk, in delivery order.
func (m *bucketModel) file(chunk []equivRow) {
	for _, r := range chunk {
		if m.started && Time(r.t) <= m.lastQ-m.wm {
			continue
		}
		m.rows = append(m.rows, r)
	}
}

// query evicts what a query at q evicts.
func (m *bucketModel) query(q Time) {
	m.lastQ, m.started = q, true
	m.rows = slices.DeleteFunc(m.rows, func(r equivRow) bool { return Time(r.t) <= q-m.wm })
}

// sorted returns the held rows in (time, arrival) order.
func (m *bucketModel) sorted() []equivRow {
	out := slices.Clone(m.rows)
	slices.SortStableFunc(out, func(a, b equivRow) int { return cmp.Compare(a.t, b.t) })
	return out
}

// compareAt queries every engine at q and demands identical
// recognition output, stats and snapshots, and every bucket equal to
// the model's after the query's eviction. It returns the first
// engine's result.
func compareAt(t testing.TB, engines []equivEngine, m *bucketModel, q Time, label string) *Result {
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
	m.query(q)
	compareBuckets(t, engines, m, label+" after the query")
	return ref
}

// TestColumnStoreMatchesEventStore runs the three delivery modes —
// per event, blocks with a key dictionary, blocks without — through
// twenty seeded streams of some thirty windows each, rows clustered
// round an advancing clock with jitter both ways (late arrivals, ties,
// out-of-order rows), so eviction and segment compaction recur. At
// every query the engines must agree with one another (compareAt), hold
// exactly the model's rows, and answer what the Event Calculus spec
// (spec_test.go) answers for the same deliveries. The name is the one
// the test had when its reference was the row-resident event store.
func TestColumnStoreMatchesEventStore(t *testing.T) {
	const (
		wm   = Time(60)
		step = Time(20)
		span = int64(600)
	)
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		engines := newEquivEngines(t, Options{WorkingMemory: wm, RuleWorkers: 1})
		model := &bucketModel{wm: wm}
		ref := newSpec(colEquivDefs(t), wm)
		var fed []specSDE

		q := Time(0)
		clock := int64(0)
		queries, fresh := 0, 0
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
				fed = append(fed, specSDE{Ev: r.event(), Arrival: Time(clock)})
			}
			for _, ee := range engines {
				deliverChunk(t, ee, chunk)
			}
			model.file(chunk)
			clock += int64(rng.Intn(20))
			if nq := Time(clock); nq >= q+step {
				q = nq
				label := fmt.Sprintf("trial %d q=%d", trial, q)
				got := compareAt(t, engines, model, q, label)
				want := ref.Query(fed, q)
				if d := specDiff(got, want); d != "" {
					t.Fatalf("%s: engines differ from the spec, %s", label, d)
				}
				queries++
				fresh += len(want.Fresh)
			}
		}
		if queries < 10 || fresh == 0 {
			t.Fatalf("trial %d: %d queries, %d fresh events: the comparison is vacuous", trial, queries, fresh)
		}
	}
}

// FuzzMergeBlock holds the column store's filing, indexing and
// eviction to its definition, from fuzzed bytes: each 4-byte group is
// one row (time delta, key, attribute selector, value). insertRows —
// bulk column append, deferred order and per-key indexing, with and
// without KIdx — and row-by-row insert must both hold exactly the
// model's rows (bucketModel), cell by cell. A row may take the previous
// row's time, so times tie across blocks; a chunk may go to every
// engine through the per-event Input instead, between block
// deliveries; and after each chunk one of the store's settling read
// points — a query's eviction, a bucket view, the resident-bytes
// estimate — is judged against the model.
func FuzzMergeBlock(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 50, 1, 2, 3, 9, 9, 0xff, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{200, 5, 7, 9, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120})
	f.Add([]byte{3, 1, 33, 7, 4, 2, 97, 1, 5, 3, 35, 2, 250, 0, 64, 9, 2, 1, 33, 8, 6, 3, 1, 129})
	f.Add([]byte("00A0900000000000A0A0")) // a late row ties a stored one
	// Long runs: some sixty chunks over a dozen windows, so eviction and
	// segment compaction recur.
	for seed := int64(1); seed <= 4; seed++ {
		long := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(long)
		f.Add(long)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 8 {
			return
		}
		const wm = 30
		engines := newEquivEngines(t, Options{WorkingMemory: wm, RuleWorkers: 1})
		model := &bucketModel{wm: wm}
		clock := int64(0)
		q := Time(0)
		chunks := 0
		last := int64(0)
		for off := 0; off+4 <= len(data) && chunks < 64; off += 4 {
			n := 1 + int(data[off])%6
			chunk := make([]equivRow, 0, n)
			sel := data[off+2]
			for i := 0; i < n && off+4 <= len(data); i++ {
				b0, b1, b2, b3 := data[off], data[off+1], data[off+2], data[off+3]
				r := equivRow{
					t:     clock - 15 + int64(b0)%30,
					key:   fmt.Sprintf("k%d", b1%4),
					attrs: map[string]any{},
				}
				if b2&32 != 0 {
					r.t = last // ties the previous row, in this block or the last
				}
				if r.t < 0 {
					r.t = 0
				}
				last = r.t
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
				if sel&64 != 0 {
					ee.block = false // this chunk goes in per event
				}
				deliverChunk(t, ee, chunk)
			}
			model.file(chunk)
			clock += int64(data[off%len(data)]) % 12
			chunks++
			label := fmt.Sprintf("chunk %d", chunks)
			switch nq := Time(clock); {
			case chunks%3 == 0 && nq > q:
				q = nq
				compareAt(t, engines, model, q, fmt.Sprintf("%s q=%d", label, q))
			case sel&128 != 0:
				for _, ee := range engines {
					ee.e.store.residentBytes()
				}
				compareBuckets(t, engines, model, label+" after residentBytes")
			default:
				compareBuckets(t, engines, model, label)
			}
		}
	})
}

// compareBuckets reads every engine's bucket view directly — a
// settling read — and demands the model's rows, keys and per-key rows,
// cell by cell.
func compareBuckets(t testing.TB, engines []equivEngine, m *bucketModel, label string) {
	t.Helper()
	all := Span{Start: MinTime, End: MaxTime}
	attrNames := []string{"level", "alarm", "zone", "count"}
	var want bytes.Buffer
	dumpRow := func(sb *bytes.Buffer, tm Time, key string, get func(string) (any, bool)) {
		fmt.Fprintf(sb, " %d/%s", tm, key)
		for _, name := range attrNames {
			if v, ok := get(name); ok {
				fmt.Fprintf(sb, "/%s=%T:%v", name, v, v)
			}
		}
	}
	rows := m.sorted()
	var keys []string
	for _, r := range rows {
		dumpRow(&want, Time(r.t), r.key, r.event().Get)
		if !slices.Contains(keys, r.key) {
			keys = append(keys, r.key)
		}
	}
	slices.Sort(keys)
	fmt.Fprintf(&want, " count=%d keys=%v", len(rows), keys)
	for _, key := range keys {
		fmt.Fprintf(&want, " [%s]", key)
		for _, r := range rows {
			if r.key == key {
				dumpRow(&want, Time(r.t), r.key, r.event().Get)
			}
		}
	}
	for _, ee := range engines {
		var got bytes.Buffer
		if b := ee.e.store.bucket("reading"); b != nil {
			dump := func(rows Rows) {
				for i := 0; i < rows.Len(); i++ {
					dumpRow(&got, rows.TimeAt(i), rows.KeyAt(i), rows.At(i).Get)
				}
			}
			dump(b.rows(all))
			fmt.Fprintf(&got, " count=%d keys=%v", b.countInSpan(all), b.keysInSpan(all))
			for _, key := range b.keysInSpan(all) {
				fmt.Fprintf(&got, " [%s]", key)
				dump(b.rowsForKey(key, all))
			}
		} else {
			fmt.Fprintf(&got, " count=0 keys=[]")
		}
		if got.String() != want.String() {
			t.Fatalf("%s: %s bucket differs from the model:\nwant:%s\ngot: %s", label, ee.name, want.String(), got.String())
		}
	}
}

// filingBytesBudget is the committed heap budget of the column store's
// filing path, in bytes allocated per filed row: the columns' growth,
// both indexes' and compaction's, over a sliding window of in-order and
// late blocks. A row's resident cells and index entries take 41 bytes.
// Growing each resident slice at most once per filing call, to at least
// double its capacity, with compaction leaving room for the refill,
// measures 117; append's 1.25× steps after every exact-size compaction
// measured 234.
const filingBytesBudget = 150

// TestAllocBudget_ColumnStoreFiling files a multi-boundary stream —
// 512-row blocks, a quarter of them late — into a column-store engine
// whose one rule reads nothing, through several segment compactions,
// and bounds the heap bytes allocated per filed row by filing and the
// queries' eviction, indexing and compaction.
func TestAllocBudget_ColumnStoreFiling(t *testing.T) {
	defs, err := NewBuilder().
		DeclareSDE("reading").
		Event(EventRule{Name: "none", Inputs: []string{"reading"}, Derive: func(*Context) []Event { return nil }}).
		Compile()
	if err != nil {
		t.Fatal(err)
	}
	const (
		step       = 600
		perStep    = 8 // blocks per boundary
		blockRows  = 512
		boundaries = 40
	)
	e, err := NewEngine(defs, Options{WorkingMemory: 4 * step, Step: step, RuleWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zones := []string{"north", "south", "east", "west"}
	blocks := make([][]*Block, boundaries)
	for q := range blocks {
		for k := 0; k < perStep; k++ {
			rows := make([]equivRow, blockRows)
			for i := range rows {
				t := int64(q*step + (k*step)/perStep + rng.Intn(step/perStep))
				if k%4 == 3 {
					t -= int64(step) // a late block
				}
				rows[i] = equivRow{t: t, key: fmt.Sprintf("k%d", rng.Intn(300)), attrs: map[string]any{
					"level": rng.Float64(), "count": int64(rng.Intn(100)), "zone": zones[rng.Intn(4)], "alarm": rng.Intn(2) == 0,
				}}
			}
			sort.SliceStable(rows, func(i, j int) bool { return rows[i].t < rows[j].t })
			blocks[q] = append(blocks[q], rowsToBlock(rows, true))
		}
	}
	compactions := 0
	seg := func() int {
		if b := e.store.types["reading"]; b != nil {
			return len(b.seg.blk.Times)
		}
		return 0
	}
	run := func(q int) {
		for _, blk := range blocks[q] {
			if err := e.InputBlockRows(blk, nil); err != nil {
				t.Fatal(err)
			}
		}
		before := seg()
		if _, err := e.Query(Time((q + 1) * step)); err != nil {
			t.Fatal(err)
		}
		if seg() < before {
			compactions++
		}
	}
	const warm = 8 // fill the window, reach the first compaction
	for q := 0; q < warm; q++ {
		run(q)
	}
	compactions = 0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	start := ms.TotalAlloc
	for q := warm; q < boundaries; q++ {
		run(q)
	}
	runtime.ReadMemStats(&ms)
	rows := (boundaries - warm) * perStep * blockRows
	perRow := float64(ms.TotalAlloc-start) / float64(rows)
	t.Logf("column store filing: %.1f heap bytes per filed row over %d compactions (budget %d)", perRow, compactions, filingBytesBudget)
	if compactions < 2 {
		t.Fatalf("%d compactions over the measured boundaries, want at least 2", compactions)
	}
	if perRow > filingBytesBudget {
		t.Errorf("filing allocates %.1f heap bytes per row, budget %d: the resident slices regrow too often", perRow, filingBytesBudget)
	}
}
