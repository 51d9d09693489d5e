package insight

import (
	"context"
	"fmt"
	"testing"

	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// gridRuleSets are the Dublin deployment's rule-set variants, crossed
// below with query steps from one window down to a quarter window.
var gridRuleSets = []struct {
	name string
	cfg  traffic.Config
}{
	{"crowd-validated", traffic.Config{NoisyPolicy: traffic.CrowdValidated}},
	{"pessimistic-adaptive", traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
	{"structured", traffic.Config{NoisyPolicy: traffic.Pessimistic, StructuredIntersections: true}},
}

// TestColumnStoreMatchesRowStoreGrid is the working-memory gate at
// system level: the full Dublin pipeline — every rule-set variant,
// query steps from one window down to a quarter window, and chaos
// dropping and duplicating rows on every stream — files its SDEs into
// the engines' column store as whole blocks, and must recognise
// bit-identical complex events to the per-event reference, which files
// the same faulted rows one map-backed event at a time (rtec Input,
// row-by-row insert). Drop/dup faults keep each stream arrival-ordered,
// so boundary admission is watermark-exact and the live concurrent
// pipeline is deterministic; the reference reads identically seeded
// injectors through the deterministic merge. The name is the one the
// gate had when the reference kept a row-resident working memory; the
// engine itself is held to the Event Calculus spec over the same grid
// by rtec's TestRuleLibraryMatchesSpec.
func TestColumnStoreMatchesRowStoreGrid(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const wm = Time(1800)
	steps := []Time{wm, wm / 2, wm / 4}

	chaos := map[string]streams.FaultSpec{}
	for i, id := range pipelineStreamIDs {
		chaos[id] = streams.FaultSpec{
			Seed:     300 + int64(i)*11,
			DropProb: 0.06,
			DupProb:  0.06,
		}
	}
	faults := func(srcs map[string]*streams.ChaosSource) (dropped, duplicated int) {
		for _, cs := range srcs {
			st := cs.Stats()
			dropped += st.Dropped
			duplicated += st.Duplicated
		}
		return dropped, duplicated
	}

	city := testCity(t)
	mk := func(tc traffic.Config, step Time) *System {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: wm,
			Step:          step,
			Traffic:       tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	for _, rs := range gridRuleSets {
		for _, step := range steps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				before := streams.LiveBatches()
				pipe, _, err := mk(rs.cfg, step).Pipeline(from, until, PipelineOptions{Chaos: chaos})
				if err != nil {
					t.Fatal(err)
				}
				pipeReports, err := pipe.Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if len(pipeReports) == 0 {
					t.Fatal("pipeline run produced no reports")
				}
				pipeDrops, pipeDups := faults(pipe.Chaos)
				if pipeDrops == 0 || pipeDups == 0 {
					t.Fatalf("chaos injected %d drops, %d dups: fault injection inert", pipeDrops, pipeDups)
				}

				injectors := make(map[string]*streams.ChaosSource)
				srcs := batchSources(city.CollectBatches(from, until, transportBatchRows, step/2))
				for i, id := range pipelineStreamIDs {
					cs := streams.NewChaosSource(srcs[i], chaos[id].ForStream(id))
					injectors[id], srcs[i] = cs, cs
				}
				refReports := referenceReports(t, mk(rs.cfg, step), from, until, srcs)
				if refDrops, refDups := faults(injectors); refDrops != pipeDrops || refDups != pipeDups {
					t.Fatalf("pipeline faults (%d drops, %d dups) != reference faults (%d drops, %d dups)",
						pipeDrops, pipeDups, refDrops, refDups)
				}
				compareReports(t, "column blocks vs per-event reference", pipeReports, refReports)
				if live := streams.LiveBatches(); live != before {
					t.Errorf("live batches = %d, want %d: buffers not returned to the pool", live, before)
				}
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
// which the live concurrent pipeline does not pin down; the monitoring
// processor (block admission) and the per-event reference therefore
// consume the same faulted batches through the deterministic
// single-threaded merge (smallest head arrival first, ties by stream
// order), and the comparison is exact: bit-identical reports at every
// boundary. Named, like the grid above, for its former row-resident
// reference.
func TestColumnStoreMatchesRowStoreDelayed(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	const wm = Time(1800)
	steps := []Time{wm, wm / 2, wm / 4}

	before := streams.LiveBatches()
	city := testCity(t)

	for _, rs := range gridRuleSets {
		for _, step := range steps {
			t.Run(fmt.Sprintf("%s/step=%d", rs.name, int64(step)), func(t *testing.T) {
				srcs := batchSources(city.CollectBatches(from, until, transportBatchRows, step/2))
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

				mk := func() *System {
					sys, err := New(Config{
						City:          city,
						Seed:          7,
						WorkingMemory: wm,
						Step:          step,
						Traffic:       rs.cfg,
					})
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				reports := processorVsReference(t, "column blocks vs per-event reference (delayed)",
					mk, from, until, srcs, earliestHead)
				if len(reports) == 0 {
					t.Fatal("no reports produced")
				}
				delayed := 0
				for _, cs := range injectors {
					delayed += cs.Stats().Delayed
				}
				if delayed == 0 {
					t.Fatal("no rows were re-ordered: delay injection inert")
				}
			})
		}
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: delayed buffers not returned to the pool", live, before)
	}
}
