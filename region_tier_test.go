package insight

import (
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// TestRegionTierHoldsNoisyAcrossRegions is the reduced form of the
// region tier's divergence from one engine: crowdless, pessimistic and
// adaptive rules, intersections A and B in different geo regions, one
// bus that disagrees with A at t1 and agrees with B at t2. Rule-set (5)
// makes noisy(bus) hold over (t1, t2]: the disagreement initiates it and
// the agreement terminates it. The single engine and the 2-shard tier
// route every move of the bus to one engine and give exactly that.
//
// The four-region tier (rtec.Partitioned, routed by the move's position,
// the product's Config{} default) files the disagreement in A's engine
// and the agreement in B's, so no termination reaches the engine that
// initiated the fluent, and inertia holds noisy(bus) there at Q. This
// test asserts that known defect; it goes with the region tier. The
// property behind it: a fluent keyed by an entity whose events a router
// sends to different engines is unsound under that router.
func TestRegionTierHoldsNoisyAcrossRegions(t *testing.T) {
	const t1, t2, q = Time(100), Time(400), Time(600)
	a := geo.Dublin.Center()
	b := geo.LonLat(a.Lon, a.Lat+0.03)
	if geo.RegionOf(a) == geo.RegionOf(b) {
		t.Fatalf("A and B share region %v", geo.RegionOf(a))
	}
	reg, err := traffic.NewRegistry([]traffic.Intersection{
		{ID: "A", Pos: a, Sensors: []string{"sA"}},
		{ID: "B", Pos: b, Sensors: []string{"sB"}},
	}, closeMeters)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic, Adaptive: true}
	defs, err := traffic.Build(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := rtec.Options{WorkingMemory: 1200, Step: 600}

	// No SCATS reading: neither intersection is congested, so the bus's
	// congestion report at A disagrees and its clear report at B agrees.
	bstreams, err := dublin.BatchSDEs([]dublin.SDE{
		{Event: traffic.Move(t1, "bus", "L1", "op", 0, a, 0, true), Arrival: t1},
		{Event: traffic.Move(t2, "bus", "L1", "op", 0, b, 0, false), Arrival: t2},
	}, 16, q)
	if err != nil {
		t.Fatal(err)
	}
	defer releaseAll(bstreams)
	var cut []rtec.BlockRun
	for _, bs := range bstreams {
		for _, batch := range bs.Batches {
			cut = append(cut, rtec.BlockRun{Block: dublin.Block(batch)})
		}
	}
	noisy := func(name string, results []*rtec.Result) rtec.List {
		t.Helper()
		l := rtec.MergeResults(results).Intervals(traffic.Noisy, "bus")
		t.Logf("%s: noisy(bus) = %v", name, l)
		return l
	}
	want := rtec.List{{Start: t1 + 1, End: t2 + 1}}

	single, err := rtec.NewEngine(defs, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range cut {
		if err := single.InputBlockRows(run.Block, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := noisy("single engine", []*rtec.Result{res}); !got.Equal(want) {
		t.Errorf("single engine: noisy(bus) = %v, want %v", got, want)
	}

	shards, err := newShardTier(Config{Shards: 2, WorkingMemory: opts.WorkingMemory, Step: opts.Step}, tcfg, reg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shards.InputCut(cut); err != nil {
		t.Fatal(err)
	}
	results, err := shards.Query(q, newSpanRecorder())
	if err != nil {
		t.Fatal(err)
	}
	if got := noisy("2 shards", results); !got.Equal(want) {
		t.Errorf("2 shards: noisy(bus) = %v, want %v", got, want)
	}

	regions, err := rtec.NewPartitioned(defs, opts, int(geo.NumRegions), dublin.PartitionOfBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := regions.InputCut(cut); err != nil {
		t.Fatal(err)
	}
	if results, err = regions.Query(q); err != nil {
		t.Fatal(err)
	}
	if got := noisy("four regions", results); !got.Contains(q) {
		t.Errorf("four regions: noisy(bus) = %v no longer holds at Q=%d: the region tier's defect is gone, update this test and DESIGN.md", got, q)
	}
}
