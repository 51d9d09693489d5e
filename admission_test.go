package insight

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// TestCursorAdmissionProperty: over random consumption sequences the
// monitoring processor — retained blocks, a cursor and a consumed mark
// each — reports exactly what the per-event reference reports. Each seed
// cuts the five streams into arrival-ordered blocks of a random size,
// moves arrivals just short of a query time onto it (boundary-equal
// stamps), injects duplicates and held-back rows re-delivered as
// single-row batches with their old stamps, and interleaves the streams
// loosely enough that they drift apart by more than the staleness bound
// of the odd seeds, so streams are degraded and rejoin in the middle of
// batches.
func TestCursorAdmissionProperty(t *testing.T) {
	const from, until, step = Time(7 * 3600), Time(8 * 3600), Time(300)
	city := testCity(t)
	before := streams.LiveBatches()
	degraded := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		staleness := Time(0)
		if seed%2 == 1 {
			staleness = Time(60 + rng.Intn(240))
		}
		mk := func() *System {
			sys, err := New(Config{
				City: city, Seed: 7, WorkingMemory: 2 * step, Step: step, WatermarkStaleness: staleness,
				Traffic: traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			return sys
		}
		collected := city.CollectBatches(from, until, 1+rng.Intn(64), 0)
		for _, bs := range collected {
			for _, b := range bs.Batches {
				for i, a := range b.Arrivals {
					// A monotone map: the block stays arrival-ordered.
					if d := int64(step) - a%int64(step); d <= 3 {
						b.Arrivals[i] = a + d
					}
				}
			}
		}
		srcs := batchSources(collected)
		for i := range srcs {
			srcs[i] = streams.NewChaosSource(srcs[i], streams.FaultSpec{
				Seed: seed*31 + int64(i), DupProb: 0.04, DelayProb: 0.06, DelayMax: 5,
			})
		}
		pick := func(heads []*streams.Batch) int {
			if rng.Intn(4) > 0 {
				return earliestHead(heads)
			}
			var live []int
			for i, b := range heads {
				if b != nil {
					live = append(live, i)
				}
			}
			if len(live) == 0 {
				return -1
			}
			return live[rng.Intn(len(live))]
		}
		reports := processorVsReference(t, "cursor admission vs per-event reference", mk, from, until, srcs, pick)
		if len(reports) != int((until-from)/step) {
			t.Errorf("seed %d: %d reports, want one per boundary", seed, len(reports))
		}
		for _, rep := range reports {
			if len(rep.DegradedStreams) > 0 {
				degraded++
			}
		}
	}
	if degraded == 0 {
		t.Error("no boundary fired with a degraded stream: the staleness seeds do not exercise the liveness rule")
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: retained blocks not returned to the pool", live, before)
	}
}

// TestLateBatchDegradesItsOwnStream is the case the consumed mark
// exists for: the bus stream holds the first boundary back, in bounds;
// then a three-row bus batch is re-delivered late, its first stamp far
// enough behind that consuming it degrades the bus stream itself and
// releases the boundary — while the batch's other two rows, stamped
// before the boundary too, are not consumed yet and must wait for the
// next one. The per-event reference says so row by row.
func TestLateBatchDegradesItsOwnStream(t *testing.T) {
	const from, until, step = Time(7 * 3600), Time(7*3600 + 600), Time(300)
	city := testCity(t)
	before := streams.LiveBatches()
	mk := func() *System {
		sys, err := New(Config{City: city, Seed: 7, WorkingMemory: 2 * step, Step: step, WatermarkStaleness: 100})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// restamp cuts the next rows of a stream's collection into one batch
	// arriving at the given offsets from the window origin.
	collected := city.CollectBatches(from, until, transportBatchRows, 0)
	next := make([]int, len(collected))
	restamp := func(stream int, offsets ...int64) streams.Item {
		src := collected[stream].Batches[0]
		b := streams.GetBatch(src.Type, src.Source)
		for r, off := range offsets {
			b.AppendRowFrom(src, next[stream])
			b.Arrivals[r] = int64(from) + off
			next[stream]++
		}
		return streams.BatchItem(b)
	}
	// Every stream advances in steps the staleness bound tolerates; the
	// SCATS streams then pass the boundary and the bus stream, at 250,
	// holds it back.
	var items []streams.Item
	for _, off := range []int64{90, 180, 250} {
		for stream := range collected {
			items = append(items, restamp(stream, off))
		}
	}
	for stream := 1; stream < len(collected); stream++ {
		items = append(items, restamp(stream, 310))
	}
	items = append(items, restamp(0, 100, 200, 290))
	for _, bs := range collected {
		for _, b := range bs.Batches {
			b.Release()
		}
	}
	reports := processorVsReference(t, "late batch vs per-event reference", mk, from, until,
		[]streams.Source{streams.NewSliceSource(items...)}, earliestHead)
	if len(reports) != 2 || reports[0].FedEvents != 16 || !hasString(reports[0].DegradedStreams, "bus") {
		t.Errorf("first boundary: %d reports, fed %d, degraded %v; want 16 rows (the late batch's first only) with bus degraded",
			len(reports), reports[0].FedEvents, reports[0].DegradedStreams)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d", live, before)
	}
}

// TestDecreasingArrivalsDeadLettered: arrival order inside an envelope
// is part of the transport contract the monitoring process relies on. A
// sixth stream smuggles one bus envelope with its arrivals reversed into
// a supervised pipeline: the validator must reject it — dead-lettered
// under SkipItem like any malformed envelope — and recognition must be
// that of the clean run (had the rows been consumed, the fed counts
// would differ and the bus watermark would have moved backwards).
func TestDecreasingArrivalsDeadLettered(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)
	clean, _, err := chaosTestSystem(t, city, nil).Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	evil := streams.NewBatch(traffic.MoveType, "bus")
	for _, bs := range city.CollectBatches(from, until, transportBatchRows, 0) {
		for _, b := range bs.Batches {
			if bs.ID == "bus" && evil.Len() == 0 {
				for r := b.Len() - 1; r >= 0; r-- {
					evil.AppendRowFrom(b, r)
				}
			}
			b.Release()
		}
	}
	if n := evil.Len(); n < 2 || evil.Arrivals[0] <= evil.Arrivals[n-1] {
		t.Fatalf("reversed envelope has %d rows, arrivals %v", n, evil.Arrivals)
	}

	sys := chaosTestSystem(t, city, nil)
	pipe, _, err := sys.Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	top := pipe.Topology
	if err := top.AddStream("smuggler", streams.NewSliceSource(streams.BatchItem(evil))); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("input-smuggler", "smuggler", "sdes", sdeValidator{areas: sys.areas}); err != nil {
		t.Fatal(err)
	}
	if err := top.Supervise("input-smuggler", streams.SkipItem); err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	dls := top.DeadLetters()
	if len(dls) != 1 || dls[0].Process != "input-smuggler" || !strings.Contains(dls[0].Err.Error(), `batch "move" from "bus" has decreasing arrivals`) {
		t.Fatalf("dead letters = %+v, want the reversed envelope rejected for its arrival order", dls)
	}
	if len(got) != len(want) {
		t.Fatalf("%d reports, clean run has %d", len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Errorf("q=%d diverged from the clean run:\n  got:  %s\n  want: %s", int64(want[i].Q), g, w)
		}
	}
}

// TestAdmitRefusedCut: an engine refusing a run of the boundary's cut —
// an envelope of an SDE type the rules never declared, behind the
// streams' own — makes admit return the engine's error on both tiers
// with no cursor advanced, and releasing the aborted run's admission
// returns every retained batch to the pool.
func TestAdmitRefusedCut(t *testing.T) {
	const from, q = Time(7 * 3600), Time(7*3600 + 900)
	city := testCity(t)
	for _, shards := range []int{0, 2} {
		before := streams.LiveBatches()
		sys, err := New(Config{City: city, Seed: 7, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		var adm admission
		for _, bs := range city.CollectBatches(from, q, transportBatchRows, 0) {
			for _, b := range bs.Batches {
				if _, err := (sdeValidator{areas: sys.areas}).ProcessBatch(b); err != nil {
					t.Fatal(err)
				}
				adm.retain(b, b.Len(), 0)
			}
		}
		bogus := streams.GetBatch("bogus", "bus")
		bogus.Append(int64(from)+60, int64(from)+60, "b1")
		bogus.Append(int64(from)+120, int64(from)+120, "b2")
		adm.retain(bogus, bogus.Len(), 0)
		retained := len(adm.blocks)

		_, err = adm.admit(sys, q, newSpanRecorder())
		if err == nil || !strings.Contains(err.Error(), `"bogus" was not declared as an SDE`) {
			t.Errorf("shards=%d: admit error = %v, want the engines' refusal of the bogus run", shards, err)
		}
		if len(adm.blocks) != retained {
			t.Errorf("shards=%d: %d of %d batches still retained after the refusal", shards, len(adm.blocks), retained)
		}
		for _, pb := range adm.blocks {
			if pb.next != 0 {
				t.Fatalf("shards=%d: a refused cut advanced a cursor to %d", shards, pb.next)
			}
		}
		adm.release()
		if live := streams.LiveBatches(); live != before {
			t.Errorf("shards=%d: live batches = %d after the aborted run, want %d", shards, live, before)
		}
	}
}
