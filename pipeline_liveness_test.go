package insight

import (
	"context"
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// livenessSystem builds a crowdless system with the watermark
// staleness bound enabled. Crowdsourcing is disabled on purpose: the
// participants share one qee random sequence across regions, so a
// fault in one region would perturb crowd verdicts in every region
// and the unaffected-region bit-exactness check below could not hold.
func livenessSystem(t *testing.T, staleness Time) *System {
	t.Helper()
	sys, err := New(Config{
		City:               testCity(t),
		Seed:               7,
		WorkingMemory:      1800,
		Step:               900,
		WatermarkStaleness: staleness,
		Traffic: traffic.Config{
			NoisyPolicy: traffic.Pessimistic,
			Adaptive:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// outsideRegion filters the intersections of a report that lie outside
// the given region, using the system registry for positions.
func outsideRegion(t *testing.T, sys *System, inters []string, region geo.Region) []string {
	t.Helper()
	var out []string
	for _, id := range inters {
		inter, ok := sys.Registry().Lookup(id)
		if !ok {
			t.Fatalf("intersection %q not in registry", id)
		}
		if geo.RegionOf(inter.Pos) != region {
			out = append(out, id)
		}
	}
	return out
}

func hasString(ss []string, want string) bool {
	for _, s := range ss {
		if s == want {
			return true
		}
	}
	return false
}

// TestPipelineLivenessStalledRegion is the headline robustness check:
// with the scats-north mediator dead from the first SDE on, the
// pipeline must still emit a report for every query boundary, flag
// the degraded stream on each, and recognise the unaffected regions
// bit-identically to the fault-free run.
func TestPipelineLivenessStalledRegion(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const staleness = 1800 // two steps

	// Fault-free baseline.
	baselineSys := livenessSystem(t, staleness)
	basePipe, err := baselineSys.BuildPipeline(from, until)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := basePipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline produced no reports")
	}
	for _, rep := range baseline {
		if len(rep.DegradedStreams) != 0 {
			t.Fatalf("Q=%d: fault-free run flagged %v as degraded", rep.Q, rep.DegradedStreams)
		}
	}

	// Same city, scats-north dead: the source stalls after its first
	// item and never recovers.
	chaosSys := livenessSystem(t, staleness)
	chaosPipe, err := chaosSys.BuildChaosPipeline(from, until, ChaosConfig{
		Streams: map[string]streams.FaultSpec{
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 0},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := chaosPipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// A report for every query boundary, despite the silent stream.
	if len(reports) != len(baseline) {
		t.Fatalf("chaos run produced %d reports, baseline %d", len(reports), len(baseline))
	}
	for i := range reports {
		if reports[i].Q != baseline[i].Q {
			t.Fatalf("report %d: query time %d, baseline %d", i, reports[i].Q, baseline[i].Q)
		}
	}

	var fedChaos, fedBase int
	for i, rep := range reports {
		// Every report flags the dead stream: its watermark is pinned
		// at the window origin, so no boundary can fire before the
		// staleness rule excludes it from the watermark minimum.
		if !hasString(rep.DegradedStreams, "scats-north") {
			t.Errorf("Q=%d: degraded streams %v, want scats-north flagged", rep.Q, rep.DegradedStreams)
		}
		if rep.WatermarkLag <= 0 {
			t.Errorf("Q=%d: watermark lag %d, want positive under a stalled stream", rep.Q, rep.WatermarkLag)
		}
		// Unaffected regions are recognised bit-identically: recognition
		// is partitioned by region, so losing the north feed must not
		// perturb the other partitions.
		got := join(outsideRegion(t, chaosSys, rep.CongestedIntersections, geo.North))
		want := join(outsideRegion(t, baselineSys, baseline[i].CongestedIntersections, geo.North))
		if got != want {
			t.Errorf("Q=%d: non-north congested intersections %q, baseline %q", rep.Q, got, want)
		}
		fedChaos += rep.FedEvents
		fedBase += baseline[i].FedEvents
	}
	if fedChaos >= fedBase {
		t.Errorf("chaos run fed %d SDEs, baseline %d: the dead stream's SDEs should be missing", fedChaos, fedBase)
	}

	// The injector accounts for the swallowed items.
	cs := chaosPipe.Chaos["scats-north"]
	if cs == nil {
		t.Fatal("chaos pipeline did not expose the scats-north injector")
	}
	if st := cs.Stats(); st.Stalled == 0 {
		t.Errorf("injector stats %+v, want stalled items", st)
	}
}

// TestPipelineLivenessRecoveredStream checks the other half of the
// liveness contract: a stream that stalls and then reconnects floods
// its backlog out as late arrivals, rejoins the watermark minimum, and
// every one of its SDEs still enters recognition through the delayed-
// arrival path — nothing is lost, only boundary timing adapts.
func TestPipelineLivenessRecoveredStream(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const staleness = 1800

	baselineSys := livenessSystem(t, staleness)
	basePipe, err := baselineSys.BuildPipeline(from, until)
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := basePipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	chaosSys := livenessSystem(t, staleness)
	chaosPipe, err := chaosSys.BuildChaosPipeline(from, until, ChaosConfig{
		Streams: map[string]streams.FaultSpec{
			// Stall long enough to trip the staleness bound (the stall
			// unit is the transport envelope, and the Step/2 span cap
			// cuts the north stream into one batch per ~450 s, so 5
			// swallowed envelopes span ~2250 s of virtual time), then
			// reconnect mid-stream and flood the backlog out.
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 5},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := chaosPipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	if len(reports) != len(baseline) {
		t.Fatalf("chaos run produced %d reports, baseline %d", len(reports), len(baseline))
	}
	var fedChaos, fedBase int
	for i := range reports {
		if reports[i].Q != baseline[i].Q {
			t.Fatalf("report %d: query time %d, baseline %d", i, reports[i].Q, baseline[i].Q)
		}
		fedChaos += reports[i].FedEvents
		fedBase += baseline[i].FedEvents
	}
	// The stall recovered, so every SDE was eventually delivered and
	// fed to the engines — late ones at later boundaries.
	if fedChaos != fedBase {
		t.Errorf("chaos run fed %d SDEs in total, baseline %d: recovered backlog must re-enter recognition", fedChaos, fedBase)
	}
	// The first boundary cannot fire while the silent stream still
	// holds the watermark minimum, so it fires exactly when the
	// staleness rule excludes the stream — flagged.
	if !hasString(reports[0].DegradedStreams, "scats-north") {
		t.Errorf("Q=%d: degraded streams %v, want scats-north flagged during the stall", reports[0].Q, reports[0].DegradedStreams)
	}
	// Once the last end-of-stream marker lifts every watermark, no
	// stream trails any other: the final boundary must not be flagged.
	last := reports[len(reports)-1]
	if len(last.DegradedStreams) != 0 {
		t.Errorf("Q=%d: final report flags %v, want none after recovery", last.Q, last.DegradedStreams)
	}
}
