package insight

// The engine-boundary bench and budget gates of the columnar event
// path: steady-state block ingest (`make bench-rtec` captures it next to
// the Figure 4 sweep) and the allocation / resident-bytes regression
// gates `make check` runs against their committed budgets.

import (
	"runtime"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// BenchmarkSustainedIngest measures steady-state block ingest at the
// paper's full scale: one engine set (column store, four regions) runs
// across all iterations, each pass feeds the next working-memory window
// (the shared batches are time-shifted forward between passes) and the
// recognition query runs after every pass (outside the timer) so
// eviction keeps the store at its steady working set — the numbers
// exclude the one-time slice-growth transient a continuously running
// pipeline never repays.
func BenchmarkSustainedIngest(b *testing.B) {
	const wm = rtec.Time(30 * 60)
	from := rtec.Time(7 * 3600)
	city, err := dublin.NewCity(dublin.Config{Seed: 1, NumBuses: 942, NumSensors: 966})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		b.Fatal(err)
	}
	defs, err := traffic.Build(traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic})
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	var batches []*streams.Batch
	var blocks []*rtec.Block
	for _, bs := range city.CollectBatches(from, from+wm, 512, 0) {
		for _, batch := range bs.Batches {
			batches = append(batches, batch)
			blocks = append(blocks, dublin.Block(batch))
			n += batch.Len()
		}
	}
	b.Cleanup(func() {
		for _, batch := range batches {
			batch.Release()
		}
	})
	// Profile turns on the resident-store accounting (recorded outside
	// the timer, at the per-window queries).
	part, err := rtec.NewPartitioned(defs, rtec.Options{WorkingMemory: wm, Step: wm, Profile: true},
		4, dublin.PartitionOfBlock)
	if err != nil {
		b.Fatal(err)
	}
	cut := make([]rtec.BlockRun, len(blocks))
	for i, blk := range blocks {
		cut[i] = rtec.BlockRun{Block: blk}
	}
	// Each pass feeds [from+shift, from+shift+wm) and then moves the data
	// one window forward (the blocks alias the batches' slices), so the
	// store always ingests strictly new time and eviction bounds memory
	// at any -benchtime. The first pass is the warm-up: store and pool
	// slices reach their steady-state capacities before the timer starts.
	var shift rtec.Time
	var resident uint64
	pass := func() {
		if _, err := part.InputCut(cut); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		results, err := part.Query(from + shift + wm)
		if err != nil {
			b.Fatal(err)
		}
		resident = rtec.MergeResults(results).Stats.ResidentBytes
		for _, batch := range batches {
			for i := range batch.Times {
				batch.Times[i] += int64(wm)
			}
		}
		shift += wm
		b.StartTimer()
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.ReportMetric(float64(n), "events")
	b.ReportMetric(float64(resident)/float64(n), "res-B/event")
}

// residentAtSteadyState runs the sustained-ingest workload for a few
// windows and returns the resident store bytes the last query
// reported, plus the per-window event count.
func residentAtSteadyState(t *testing.T) (uint64, int) {
	t.Helper()
	const wm = rtec.Time(30 * 60)
	from := rtec.Time(7 * 3600)
	city, err := dublin.NewCity(dublin.Config{Seed: 1, NumBuses: 118, NumSensors: 121})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := traffic.Build(traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic})
	if err != nil {
		t.Fatal(err)
	}
	bstreams := city.CollectBatches(from, from+wm, 512, 0)
	n := 0
	var batches []*streams.Batch
	var blocks []*rtec.Block
	for _, bs := range bstreams {
		for _, batch := range bs.Batches {
			batches = append(batches, batch)
			blocks = append(blocks, dublin.Block(batch))
			n += batch.Len()
		}
	}
	defer func() {
		for _, batch := range batches {
			batch.Release()
		}
	}()
	part, err := rtec.NewPartitioned(defs, rtec.Options{
		WorkingMemory: wm, Profile: true,
	}, 4, dublin.PartitionOfBlock)
	if err != nil {
		t.Fatal(err)
	}
	cut := make([]rtec.BlockRun, len(blocks))
	for i, blk := range blocks {
		cut[i] = rtec.BlockRun{Block: blk}
	}
	var resident uint64
	shift := rtec.Time(0)
	for pass := 0; pass < 3; pass++ {
		if _, err := part.InputCut(cut); err != nil {
			t.Fatal(err)
		}
		results, err := part.Query(from + shift + wm)
		if err != nil {
			t.Fatal(err)
		}
		resident = rtec.MergeResults(results).Stats.ResidentBytes
		for _, batch := range batches {
			for i := range batch.Times {
				batch.Times[i] += int64(wm)
			}
		}
		shift += wm
	}
	return resident, n
}

// residentBudgetPerEvent is the committed resident-memory budget of
// the column store, in estimated resident bytes per event of the
// window at ingest steady state. It measured 144.2; the bound it
// replaces — 1.5 times below the row store's 224.3 on the same
// workload — came to 149.5.
const residentBudgetPerEvent = 149

// TestResidentBudget is the resident-memory gate of the column store:
// at ingest steady state (eviction active) it must hold at most
// residentBudgetPerEvent estimated resident bytes per event.
func TestResidentBudget(t *testing.T) {
	bytes, n := residentAtSteadyState(t)
	if bytes == 0 || n == 0 {
		t.Fatalf("resident accounting inert: %d bytes over %d events", bytes, n)
	}
	perEvent := float64(bytes) / float64(n)
	t.Logf("resident store bytes at steady state: %d (%.1f B/event, budget %d)", bytes, perEvent, residentBudgetPerEvent)
	if perEvent > residentBudgetPerEvent {
		t.Errorf("column store holds %.1f resident bytes per event, budget %d", perEvent, residentBudgetPerEvent)
	}
}

// allocBudgetPerEvent is the committed ingest allocation budget the
// check target gates on: the columnar path must stay under this many
// heap allocations per event on the block-ingest path (engine-side row
// copy + store insertion). The map path sits around 10 allocs/event
// (attribute map, boxed values, Event record); the columnar path's
// per-block slice copies amortize to well under one. Measured at
// ~0.11 on the seed hardware; 0.25 leaves headroom for allocator and
// map-growth jitter without letting a per-row allocation (≥1.0) slip
// through.
const allocBudgetPerEvent = 0.25

// TestAllocBudget_ColumnarIngest is the allocation-regression gate: it
// measures allocations per event on the columnar ingest path — move
// blocks carrying the input stage's close/4 stamp, as the pipeline
// admits them — and fails when the committed budget is exceeded.
// Skipped under the race detector, whose instrumentation allocates.
func TestAllocBudget_ColumnarIngest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	city, err := dublin.NewCity(dublin.Config{Seed: 1, NumBuses: 118, NumSensors: 121})
	if err != nil {
		t.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := traffic.Build(traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic})
	if err != nil {
		t.Fatal(err)
	}
	areas, err := traffic.AreaIndex(traffic.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	from := rtec.Time(7 * 3600)
	bstreams := city.CollectBatches(from, from+1800, 512, 0)
	var blocks []*rtec.Block
	events := 0
	for _, bs := range bstreams {
		for _, batch := range bs.Batches {
			if _, err := (sdeValidator{areas: areas}).ProcessBatch(batch); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, dublin.Block(batch))
			events += batch.Len()
		}
	}
	if blocks[0].Column(traffic.CloseColumn) == nil {
		t.Fatal("the move blocks carry no close stamp")
	}
	defer func() {
		for _, bs := range bstreams {
			for _, batch := range bs.Batches {
				batch.Release()
			}
		}
	}()
	part, err := rtec.NewPartitioned(defs, rtec.Options{WorkingMemory: 1800, Step: 1800},
		4, dublin.PartitionOfBlock)
	if err != nil {
		t.Fatal(err)
	}
	cut := make([]rtec.BlockRun, len(blocks))
	for i, blk := range blocks {
		cut[i] = rtec.BlockRun{Block: blk}
	}
	// Warm up once so the store's per-key slices exist; the measured
	// passes then see the steady-state path.
	if _, err := part.InputCut(cut); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := part.InputCut(cut); err != nil {
			t.Fatal(err)
		}
	})
	perEvent := allocs / float64(events)
	t.Logf("columnar ingest: %.0f allocs per pass, %.3f per event (%d events, budget %.2f)",
		allocs, perEvent, events, allocBudgetPerEvent)
	if perEvent > allocBudgetPerEvent {
		t.Errorf("columnar ingest allocates %.3f per event, budget %.2f — the zero-allocation path regressed",
			perEvent, allocBudgetPerEvent)
	}
}

// recognitionAllocBudget is the committed recognition allocation budget
// the check target gates on: heap allocations of a steady-state
// Engine.Query over a shard's Dublin rule set, per item the bus ×
// intersection rules derive — a derived event in the result or a
// busCongestion transition point handed to the tier. Deriving an event
// as an attribute map cost three objects and up (the map, a boxed value
// or two); as EventBlock views it costs a share of a few column growths;
// the noisy fluent's per-bus interval work is a constant number of
// slices per query since FoldTransitions stopped folding each instance
// on its own; what is left is mostly a canonical rendering per
// same-identity collision. Measured at 0.356 (0.58 with the per-instance
// fold, 0.74 when the points were vote events with a key per (bus, area)
// pair, 5.61 with map-backed events); 0.50 leaves room for map-growth
// jitter without letting the per-instance fold back in.
const recognitionAllocBudget = 0.50

// recognitionBytesBudget is the same gate's budget on heap bytes per
// query (the TotalAlloc delta of queries 3–6, averaged). Measured at
// 5.2–5.3 MB with the rules appending into transition buffers and the
// folds working in scratch that each engine keeps across queries, and at
// 6.9–7.0 MB when every query allocated them afresh; 6.0 MB leaves room
// for map-growth jitter without letting the per-query buffers back in.
const recognitionBytesBudget = 6.0e6

// TestAllocBudget_Recognition is the allocation-regression gate of the
// bus × intersection rules: a sliding-window engine on the column
// store running the shard rule set (agree, disagree, delayIncrease,
// noisy, busCongestion's points), measured over the queries after the first two
// (which fill the window and the overlap caches). Only the bus stream is
// fed, as blocks admitted by arrival: stamped by the input stage, the
// product path, and unstamped, where the rules join each move
// themselves. The per-sensor fluents allocate per fluent instance, not
// per derived event, and would drown the figure. Heap bytes are gated
// per query.
func TestAllocBudget_Recognition(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The 10x profile's street grid and sensor density — where a bus is
	// close to a few instrumented junctions at every report — under a
	// twentieth of its fleet and a tenth of its congestion hotspots (the
	// generator's cost), to keep the test short.
	cfg := dublin.Profile10x(1)
	cfg.NumBuses, cfg.Hotspots = 471, 40
	city, err := dublin.NewCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := traffic.BuildShard(
		traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic, Adaptive: true},
		traffic.ShardPlan{OwnsSensor: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	areas, err := traffic.AreaIndex(traffic.Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	const wm, step = rtec.Time(600), rtec.Time(300)
	from := rtec.Time(7 * 3600)
	bstreams := city.CollectBatches(from, from+6*step, transportBatchRows, 0)
	defer releaseAll(bstreams)
	var stamped, bare []*rtec.Block
	for _, b := range bstreams[0].Batches { // the bus stream
		if _, err := (sdeValidator{areas: areas}).ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		blk := dublin.Block(b)
		stripped := *blk
		stripped.Cols = slices.DeleteFunc(slices.Clone(blk.Cols), func(c rtec.BCol) bool { return c.Name == traffic.CloseColumn })
		stamped, bare = append(stamped, blk), append(bare, &stripped)
	}
	for _, tc := range []struct {
		name   string
		blocks []*rtec.Block
	}{{"stamped", stamped}, {"unstamped", bare}} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: wm, RuleWorkers: 1})
			if err != nil {
				t.Fatal(err)
			}
			var mallocs, bytes uint64
			var joins int64
			derived := 0
			next := make([]int, len(tc.blocks))
			var rows []int32
			for i := 1; i <= 6; i++ {
				q := from + rtec.Time(i)*step
				for bi, blk := range tc.blocks {
					arrivals := bstreams[0].Batches[bi].Arrivals
					rows = rows[:0]
					for ; next[bi] < len(arrivals) && rtec.Time(arrivals[next[bi]]) <= q; next[bi]++ {
						rows = append(rows, int32(next[bi]))
					}
					if len(rows) > 0 {
						if err := e.InputBlockRows(blk, rows); err != nil {
							t.Fatal(err)
						}
					}
				}
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				res, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				joins += res.Stats.Joins
				if i > 2 {
					mallocs += after.Mallocs - before.Mallocs
					bytes += after.TotalAlloc - before.TotalAlloc
					derived += res.Stats.DerivedEvents + len(e.Transitions(traffic.BusCongestion))
				}
			}
			if derived < 50000 {
				t.Fatalf("only %d derived events and points: the workload does not exercise the rules", derived)
			}
			if (joins == 0) != (tc.name == "stamped") {
				t.Fatalf("%d close/4 joins inside recognition", joins)
			}
			perEvent := float64(mallocs) / float64(derived)
			t.Logf("recognition: %d allocs for %d derived events and points, %.3f each (budget %.2f)",
				mallocs, derived, perEvent, recognitionAllocBudget)
			perQuery := float64(bytes) / 4
			t.Logf("recognition: %.2f MB per query (budget %.1f)", perQuery/1e6, recognitionBytesBudget/1e6)
			if perQuery > recognitionBytesBudget {
				t.Errorf("recognition allocates %.2f MB per query, budget %.1f — a per-query buffer is back",
					perQuery/1e6, recognitionBytesBudget/1e6)
			}
			if perEvent > recognitionAllocBudget {
				t.Errorf("recognition allocates %.3f objects per derived event or point, budget %.2f — a per-event allocation is back",
					perEvent, recognitionAllocBudget)
			}
		})
	}
}
