package insight

import (
	"context"
	"fmt"
	"testing"

	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// gridCells is the store-equivalence grid: every rule-set variant of
// the Dublin deployment crossed with query steps from one window down
// to a quarter window.
var gridRuleSets = []struct {
	name string
	cfg  traffic.Config
}{
	{"crowd-validated", traffic.Config{NoisyPolicy: traffic.CrowdValidated}},
	{"pessimistic-adaptive", traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
	{"structured", traffic.Config{NoisyPolicy: traffic.Pessimistic, StructuredIntersections: true}},
}

// TestColumnStoreMatchesRowStoreGrid is the store-equivalence gate at
// system level: the full Dublin pipeline — every rule-set variant,
// query steps from one window down to a quarter window, and chaos
// injection dropping and duplicating rows on every stream — must
// recognise bit-identical complex events whether the partition engines
// keep their working memory row-resident or column-resident. Drop/dup
// faults keep each stream arrival-ordered, so boundary admission is
// watermark-exact and the live concurrent pipeline stays deterministic
// (out-of-order re-delivery is covered separately below, through a
// deterministic merge — see TestColumnStoreMatchesRowStoreDelayed).
func TestColumnStoreMatchesRowStoreGrid(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const wm = Time(1800)
	steps := []Time{wm, wm / 2, wm / 4}

	chaos := ChaosConfig{Streams: map[string]streams.FaultSpec{}}
	for i, id := range []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"} {
		chaos.Streams[id] = streams.FaultSpec{
			Seed:     300 + int64(i)*11,
			DropProb: 0.06,
			DupProb:  0.06,
		}
	}

	city := testCity(t)
	run := func(tc traffic.Config, step Time, kind rtec.StoreKind) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: wm,
			Step:          step,
			Store:         kind,
			UnpacedReplay: true,
			Traffic:       tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := sys.BuildChaosPipeline(from, until, chaos)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dropped, duplicated := 0, 0
		for _, cs := range pipe.Chaos {
			dropped += cs.Stats().Dropped
			duplicated += cs.Stats().Duplicated
		}
		if dropped == 0 || duplicated == 0 {
			t.Fatalf("chaos injected %d drops, %d dups: fault injection inert", dropped, duplicated)
		}
		return reports
	}

	for _, rs := range gridRuleSets {
		for _, step := range steps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				rowReports := run(rs.cfg, step, rtec.StoreRow)
				if len(rowReports) == 0 {
					t.Fatal("row-store run produced no reports")
				}
				colReports := run(rs.cfg, step, rtec.StoreColumn)
				compareReports(t, "column vs row store", colReports, rowReports)
			})
		}
	}
}

// TestColumnStoreMatchesRowStoreDelayed is the out-of-order half of
// the grid: seeded fault injection holds rows back and re-delivers
// them after their stream's arrival watermark has passed, so blocks
// reach the engines late and out of order — the regime the dirty
// watermark exists for. Whether a held row lands before or after a
// query boundary depends on the physical interleaving of the streams,
// which the live concurrent pipeline does not pin down; both store
// runs therefore consume the same faulted batches through the
// deterministic single-threaded merge of the chaos round-trip tests
// (smallest head arrival first, ties by stream order), and the
// comparison is exact: bit-identical reports at every boundary,
// row-resident vs column-resident working memory.
func TestColumnStoreMatchesRowStoreDelayed(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	const wm = Time(1800)
	steps := []Time{wm, wm / 2, wm / 4}

	before := streams.LiveBatches()
	city := testCity(t)

	mkProc := func(tc traffic.Config, step Time, kind rtec.StoreKind) *rtecProcessor {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: wm,
			Step:          step,
			Store:         kind,
			Traffic:       tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return newRTECProcessor(sys, from, until)
	}

	// cloneBatch copies a pooled batch row by row so two consuming
	// processors can each release their own copy.
	cloneBatch := func(b *streams.Batch) *streams.Batch {
		cp := streams.GetBatch(b.Type, b.Source)
		for i := 0; i < b.Len(); i++ {
			cp.AppendRowFrom(b, i)
		}
		return cp
	}

	collect := func(dst *[]*Report, items []streams.Item) {
		for _, it := range items {
			rep, ok := it[itemReport].(*Report)
			if !ok {
				t.Fatalf("monitoring emitted a non-report item %v", it)
			}
			*dst = append(*dst, rep)
		}
	}

	for _, rs := range gridRuleSets {
		for _, step := range steps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				srcs := batchSources(city.CollectBatches(from, until, 512, step/2))
				injectors := make([]*streams.ChaosSource, len(srcs))
				for i := range srcs {
					injectors[i] = streams.NewChaosSource(srcs[i], streams.FaultSpec{
						Seed:      300 + int64(i)*11,
						DropProb:  0.03,
						DelayProb: 0.10,
						DelayMax:  4,
					})
					srcs[i] = injectors[i]
				}

				rowProc := mkProc(rs.cfg, step, rtec.StoreRow)
				colProc := mkProc(rs.cfg, step, rtec.StoreColumn)
				var rowReports, colReports []*Report
				fed := drainMerged(t, srcs, func(b *streams.Batch) {
					cp := cloneBatch(b)
					outs, err := colProc.ProcessBatch(b)
					if err != nil {
						t.Fatal(err)
					}
					collect(&colReports, outs)
					outs, err = rowProc.ProcessBatch(cp)
					if err != nil {
						t.Fatal(err)
					}
					collect(&rowReports, outs)
				})
				if fed == 0 {
					t.Fatal("no rows survived fault injection")
				}
				delayed := 0
				for _, cs := range injectors {
					delayed += cs.Stats().Delayed
				}
				if delayed == 0 {
					t.Fatal("no rows were re-ordered: delay injection inert")
				}

				outs, err := colProc.Flush()
				if err != nil {
					t.Fatal(err)
				}
				collect(&colReports, outs)
				outs, err = rowProc.Flush()
				if err != nil {
					t.Fatal(err)
				}
				collect(&rowReports, outs)

				if len(rowReports) == 0 {
					t.Fatal("row-store run produced no reports")
				}
				compareReports(t, "column vs row store (delayed)", colReports, rowReports)
			})
		}
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: delayed buffers not returned to the pool", live, before)
	}
}
