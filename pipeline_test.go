package insight

import (
	"context"
	"fmt"
	"testing"

	"github.com/insight-dublin/insight/traffic"
)

// TestRunMatchesPerEventReference drives the same city through
// System.Pipeline — the Streams data-flow graph of Section 3, reports
// handed to OnReport — and through the per-event reference, on the legacy
// partitioning and on the sharded tier, and checks the two recognise the
// same thing boundary for boundary, crowd rounds included: the
// pipeline's watermark punctuation must admit exactly the SDEs that have
// arrived by each query time.
func TestRunMatchesPerEventReference(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600

	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			city := testCity(t)
			mkSystem := func() *System {
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

			var runReports []*Report
			if err := runToEnd(context.Background())(mkSystem().Pipeline(from, until, PipelineOptions{OnReport: func(r *Report) error {
				runReports = append(runReports, r)
				return nil
			}})); err != nil {
				t.Fatal(err)
			}

			refSys := mkSystem()
			refReports := referenceReports(t, refSys, from, until, batchSources(refSys.collect(from, until)))
			rounds := 0
			for _, rep := range refReports {
				rounds += len(rep.CrowdRounds)
			}
			if rounds == 0 {
				t.Error("no crowd rounds: the feedback loop is not part of the comparison")
			}
			compareReports(t, "Run vs per-event reference", runReports, refReports)

			// The traffic modelling service is reachable from the topology.
			pipe, _, err := refSys.Pipeline(from, until, PipelineOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer pipe.release()
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
