package insight

import (
	"context"
	"fmt"
	"testing"

	"github.com/insight-dublin/insight/traffic"
)

// TestPipelineMatchesDirectRun drives the same city through the
// Streams data-flow graph (Section 3 architecture) and through the
// direct Run loop, on the legacy partitioning and on the sharded tier,
// and checks the two recognise the same thing boundary for boundary —
// full report fingerprints, crowd rounds included: the pipeline's
// watermark punctuation must admit exactly the SDEs that have arrived
// by each query time, like the synchronous loop does through the same
// admission routine.
func TestPipelineMatchesDirectRun(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600

	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			mkSystem := func() *System {
				city := testCity(t)
				sys, err := New(Config{
					City:          city,
					Seed:          7,
					WorkingMemory: 1800,
					Step:          900,
					Shards:        shards,
					Participants:  testParticipants(city, 8),
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

			var directReports []*Report
			if err := mkSystem().Run(context.Background(), from, until, func(r *Report) error {
				directReports = append(directReports, r)
				return nil
			}); err != nil {
				t.Fatal(err)
			}

			pipe, err := mkSystem().BuildPipeline(from, until)
			if err != nil {
				t.Fatal(err)
			}
			pipeReports, err := pipe.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}

			if len(pipeReports) != len(directReports) || len(pipeReports) == 0 {
				t.Fatalf("pipeline produced %d reports, direct run %d", len(pipeReports), len(directReports))
			}
			rounds := 0
			for i := range pipeReports {
				if got, want := pipeReports[i].Fingerprint(), directReports[i].Fingerprint(); got != want {
					t.Errorf("boundary %d diverged:\n  pipeline: %s\n  direct:   %s", i, got, want)
				}
				rounds += len(directReports[i].CrowdRounds)
			}
			if rounds == 0 {
				t.Error("no crowd rounds: the feedback loop is not part of the comparison")
			}

			// The traffic modelling service is reachable from the topology.
			svc, ok := pipe.Topology.LookupService("trafficModel")
			if !ok {
				t.Fatal("trafficModel service not registered")
			}
			flowMap, ok := svc.(TrafficModelService)
			if !ok {
				t.Fatalf("trafficModel service has type %T", svc)
			}
			est, err := flowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500})
			if err != nil {
				t.Fatal(err)
			}
			if len(est.Values) == 0 {
				t.Error("traffic model service produced no estimates")
			}
		})
	}
}

func join(ss []string) string {
	out := ""
	for _, s := range ss {
		out += s + ","
	}
	return out
}
