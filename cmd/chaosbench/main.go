// Command chaosbench runs the Dublin pipeline under deterministic
// fault injection and measures how recognition degrades relative to
// the fault-free run: whether every query boundary still produces a
// report, which input streams were flagged degraded, how far the
// boundary watermark lagged, and how precision/recall of the
// recognised congested intersections (fault-free run as reference)
// suffer per fault profile.
//
// Profiles:
//
//	stall-scats  the scats-north mediator dies after its first batch
//	stall-recover the scats-north mediator stalls, then reconnects
//	drop         every stream loses 10% of its SDEs
//	dup          every stream duplicates 10% of its SDEs
//	delay        every stream reorders 20% of its SDEs
//	flaky-proc   input validation fails 5% of batch envelopes
//	             (skip-item supervision dead-letters them)
//
// SDEs cross the pipeline as column batches: drop, dup and delay act
// per row, stalls and processor faults per envelope (one batch per
// stream per ≤ Step/2 of arrival time).
//
// Usage:
//
//	chaosbench [-buses 60] [-sensors 60] [-hours 1] [-staleness 1800]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/eval"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("chaosbench: ")
	var (
		buses     = flag.Int("buses", 60, "bus fleet size")
		sensors   = flag.Int("sensors", 60, "SCATS sensor count")
		hours     = flag.Float64("hours", 1, "monitored duration (from 07:00)")
		staleness = flag.Int64("staleness", 1800, "watermark staleness bound (s); 0 disables liveness")
		seed      = flag.Int64("seed", 42, "simulation seed")
	)
	flag.Parse()

	from := rtec.Time(7 * 3600)
	until := from + rtec.Time(*hours*3600)

	mkSystem := func() *insight.System {
		city, err := dublin.NewCity(dublin.Config{
			Seed:             *seed,
			NumBuses:         *buses,
			NumSensors:       *sensors,
			Hotspots:         15,
			NoisyBusFraction: 0.25,
		})
		if err != nil {
			log.Fatal(err)
		}
		// Crowdless on purpose: the crowd engine's shared random
		// sequence would couple the regions and blur the fault
		// attribution this benchmark is after.
		sys, err := insight.New(insight.Config{
			City:               city,
			Seed:               7,
			WorkingMemory:      1800,
			Step:               900,
			WatermarkStaleness: rtec.Time(*staleness),
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return sys
	}

	run := func(chaos insight.ChaosConfig) (*insight.Pipeline, []*insight.Report) {
		pipe, err := mkSystem().BuildChaosPipeline(from, until, chaos)
		if err != nil {
			log.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			log.Fatal(err)
		}
		return pipe, reports
	}

	fmt.Printf("pipeline under chaos — %d buses, %d sensors, %.1f h, staleness %d s\n\n",
		*buses, *sensors, *hours, *staleness)

	_, baseline := run(insight.ChaosConfig{})
	boundaries := len(baseline)
	basePositives := positives(baseline)

	everyStream := func(spec streams.FaultSpec) map[string]streams.FaultSpec {
		ids := []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"}
		out := make(map[string]streams.FaultSpec, len(ids))
		for i, id := range ids {
			s := spec
			s.Seed = spec.Seed + int64(i)*101
			out[id] = s
		}
		return out
	}

	profiles := []struct {
		name  string
		chaos insight.ChaosConfig
	}{
		{"stall-scats", insight.ChaosConfig{Streams: map[string]streams.FaultSpec{
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 0},
		}}},
		{"stall-recover", insight.ChaosConfig{Streams: map[string]streams.FaultSpec{
			// 5 swallowed envelopes ≈ 2250 s of stream time: past the
			// default staleness bound, then the backlog floods out.
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 5},
		}}},
		{"drop", insight.ChaosConfig{Streams: everyStream(streams.FaultSpec{Seed: 2, DropProb: 0.10})}},
		{"dup", insight.ChaosConfig{Streams: everyStream(streams.FaultSpec{Seed: 3, DupProb: 0.10})}},
		{"delay", insight.ChaosConfig{Streams: everyStream(streams.FaultSpec{Seed: 4, DelayProb: 0.20, DelayMax: 16})}},
		{"flaky-proc", insight.ChaosConfig{InputErrProb: 0.05, Seed: 5}},
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "profile\treports\tdegraded\tprec\trecall\tmean lag\tinjected\tdead letters")
	fmt.Fprintf(w, "fault-free\t%d/%d\t0\t1.000\t1.000\t%s\t-\t0\n",
		boundaries, boundaries, meanLag(baseline))

	for _, p := range profiles {
		pipe, reports := run(p.chaos)

		var conf eval.Confusion
		degradedReports := 0
		for _, rep := range reports {
			if len(rep.DegradedStreams) > 0 {
				degradedReports++
			}
		}
		seen := positives(reports)
		for key := range seen {
			if basePositives[key] {
				conf.TP++
			} else {
				conf.FP++
			}
		}
		for key := range basePositives {
			if !seen[key] {
				conf.FN++
			}
		}

		injected := 0
		for _, cs := range pipe.Chaos {
			st := cs.Stats()
			injected += st.Dropped + st.Duplicated + st.Delayed + st.Stalled
		}
		for _, cp := range pipe.ChaosProcs {
			injected += cp.Stats().Errors
		}
		dead := len(pipe.Topology.DeadLetters())

		fmt.Fprintf(w, "%s\t%d/%d\t%d\t%.3f\t%.3f\t%s\t%d\t%d\n",
			p.name, len(reports), boundaries, degradedReports,
			conf.Precision(), conf.Recall(), meanLag(reports), injected, dead)
	}
	w.Flush()

	fmt.Println("\nreports: query boundaries answered / expected — liveness means no profile may lose one")
	fmt.Println("degraded: reports flagging at least one degraded input stream")
	fmt.Println("prec/recall: recognised congested intersections vs the fault-free run, per boundary")
	fmt.Println("mean lag: average gap between the fastest stream's watermark and the fired boundary")
}

// positives collects every recognised situation as a "Q/type/key"
// fact: congested intersections, bus congestion areas and noisy
// buses, per query boundary. The fault-free facts are the accuracy
// reference.
func positives(reports []*insight.Report) map[string]bool {
	out := make(map[string]bool)
	for _, rep := range reports {
		q := int64(rep.Q)
		for _, in := range rep.CongestedIntersections {
			out[fmt.Sprintf("%d/int/%s", q, in)] = true
		}
		for _, area := range rep.BusCongestionAreas {
			out[fmt.Sprintf("%d/area/%s", q, area)] = true
		}
		for _, bus := range rep.NoisyBuses {
			out[fmt.Sprintf("%d/bus/%s", q, bus)] = true
		}
	}
	return out
}

func meanLag(reports []*insight.Report) string {
	if len(reports) == 0 {
		return "-"
	}
	var sum int64
	for _, rep := range reports {
		sum += int64(rep.WatermarkLag)
	}
	return fmt.Sprintf("%d s", sum/int64(len(reports)))
}
