package insight

import (
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// The region tier's two divergences from one engine, each in reduced
// form (DESIGN.md, "Sharded recognition tier").

// TestRegionTierHoldsNoisyAcrossRegions is the reduced form of the
// region tier's divergence on a bus-keyed fluent: crowdless, pessimistic
// and adaptive rules, intersections A and B in different geo regions,
// one bus that disagrees with A at t1 and agrees with B at t2. Rule-set
// (5) makes noisy(bus) hold over (t1, t2]: the disagreement initiates it
// and the agreement terminates it. The single engine and the 2-shard
// tier route every move of the bus to one engine and give exactly that.
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
	// No SCATS reading: neither intersection is congested, so the bus's
	// congestion report at A disagrees and its clear report at B agrees.
	tiers := onTiers(t, []traffic.Intersection{
		{ID: "A", Pos: a, Sensors: []string{"sA"}},
		{ID: "B", Pos: b, Sensors: []string{"sB"}},
	}, []dublin.SDE{
		{Event: traffic.Move(t1, "bus", "L1", "op", 0, a, 0, true), Arrival: t1},
		{Event: traffic.Move(t2, "bus", "L1", "op", 0, b, 0, false), Arrival: t2},
	}, q)
	want := rtec.List{{Start: t1 + 1, End: t2 + 1}}
	for _, tier := range tiers {
		l := tier.result.Intervals(traffic.Noisy, "bus")
		t.Logf("%s: noisy(bus) = %v", tier.name, l)
		switch {
		case tier.name != "four regions" && !l.Equal(want):
			t.Errorf("%s: noisy(bus) = %v, want %v", tier.name, l, want)
		case tier.name == "four regions" && !l.Contains(q):
			t.Errorf("four regions: noisy(bus) = %v no longer holds at Q=%d: the region tier's defect is gone, update this test and DESIGN.md", l, q)
		}
	}
}

// TestRegionTierSplitsCloseJoin is the reduced form of the region
// tier's divergence on the close/4 join: intersection A and its one
// sensor just north of the central region's border, one bus just inside
// it, within the close threshold of A. The sensor reads congested at t0
// and the bus reports congestion at t1, so the sources agree: the single
// engine and the 2-shard tier (which replicates sensor rows to every
// shard) derive no disagree. The four-region tier routes the bus's row
// to the central engine and the sensor's to the north one, so the
// central engine joins the move against an intersection it has no
// readings for and derives disagree(A) at t1. This test asserts that
// known defect; it goes with the region tier.
func TestRegionTierSplitsCloseJoin(t *testing.T) {
	const t0, t1, q = Time(100), Time(300), Time(600)
	c := geo.Dublin.Center()
	a := geo.LonLat(c.Lon, c.Lat+0.0205)
	bus := geo.LonLat(c.Lon, c.Lat+0.0195)
	if geo.RegionOf(a) == geo.RegionOf(bus) || !geo.Close(a, bus, closeMeters) {
		t.Fatalf("A in %v and the bus in %v, %.0f m apart: want different regions, close", geo.RegionOf(a), geo.RegionOf(bus), geo.Distance(a, bus))
	}
	reading := traffic.Traffic(t0, "sA", "A", "n", 0.9, 100)
	reading.Attrs["lon"], reading.Attrs["lat"] = a.Lon, a.Lat
	tiers := onTiers(t, []traffic.Intersection{{ID: "A", Pos: a, Sensors: []string{"sA"}}}, []dublin.SDE{
		{Event: reading, Arrival: t0},
		{Event: traffic.Move(t1, "bus", "L1", "op", 0, bus, 0, true), Arrival: t1},
	}, q)
	for _, tier := range tiers {
		n := len(tier.result.Derived[traffic.Disagree])
		t.Logf("%s: %d disagree", tier.name, n)
		switch {
		case tier.name != "four regions" && n != 0:
			t.Errorf("%s: %d disagree events, want 0: the sources agree", tier.name, n)
		case tier.name == "four regions" && n != 1:
			t.Errorf("four regions: %d disagree events, want the 1 the split join derives: the region tier's defect is gone, update this test and DESIGN.md", n)
		}
	}
}

// tierResult is one tier's merged answer at Q.
type tierResult struct {
	name   string
	result *rtec.Result
}

// onTiers files the SDEs, batched as the pipeline batches them, into
// the single engine, the 2-shard tier and the four-region tier over the
// given intersections (crowdless, pessimistic, adaptive rules) and
// returns each tier's merged result at q.
func onTiers(t *testing.T, inters []traffic.Intersection, sdes []dublin.SDE, q Time) []tierResult {
	t.Helper()
	reg, err := traffic.NewRegistry(inters, closeMeters)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic, Adaptive: true}
	defs, err := traffic.Build(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := rtec.Options{WorkingMemory: 1200, Step: 600}

	bstreams, err := dublin.BatchSDEs(sdes, 16, q)
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
	out := []tierResult{{"single engine", res}}

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
	out = append(out, tierResult{"2 shards", rtec.MergeResults(results)})

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
	return append(out, tierResult{"four regions", rtec.MergeResults(results)})
}
