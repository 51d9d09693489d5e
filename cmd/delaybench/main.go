// Command delaybench quantifies the design choice behind Figure 2 of
// the paper: making the working memory larger than the step so that
// SDEs which arrive late (mediator delays) are still incorporated at a
// later query time.
//
// For each WM/step ratio it reports (a) the fraction of SDEs that are
// never seen by any query — they occurred inside some window but had
// not arrived by its query time and had fallen out by the next — and
// (b) the accuracy of scatsCongestion recognition against ground
// truth, which the losses degrade.
//
// Usage:
//
//	delaybench [-step 5m] [-maxdelay 2m] [-hours 2] [-ratios 1,2,3]
//
// Recognition runs through an insight.System with a single engine
// (Partitions: 1): SDEs are admitted by arrival time at each query, as
// in the deployed pipeline.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/eval"
	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("delaybench: ")
	var (
		step     = flag.Duration("step", 5*time.Minute, "query step")
		maxDelay = flag.Duration("maxdelay", 2*time.Minute, "maximum mediator delay")
		hours    = flag.Float64("hours", 2, "monitored duration (from 07:00)")
		ratios   = flag.String("ratios", "1,2,3", "WM/step ratios to compare")
		buses    = flag.Int("buses", 120, "bus fleet size")
		sensors  = flag.Int("sensors", 120, "SCATS sensor count")
		seed     = flag.Int64("seed", 2, "simulation seed")
	)
	flag.Parse()

	city, err := dublin.NewCity(dublin.Config{
		Seed:       *seed,
		NumBuses:   *buses,
		NumSensors: *sensors,
		MaxDelay:   rtec.Time(maxDelay.Seconds()),
	})
	if err != nil {
		log.Fatal(err)
	}

	from := rtec.Time(7 * 3600)
	until := from + rtec.Time(*hours*3600)
	stepT := rtec.Time(step.Seconds())
	sdes := city.Collect(from, until)
	fmt.Printf("Figure 2 ablation — delayed SDEs vs working memory size\n")
	fmt.Printf("%d SDEs over %.1f h, mediator delay up to %s, step %s\n\n", len(sdes), *hours, maxDelay, step)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "WM/step\tlost SDEs\tlost %\tscats F1\tscats recall")
	for _, part := range strings.Split(*ratios, ",") {
		ratio, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || ratio < 1 {
			log.Fatalf("invalid ratio %q", part)
		}
		wm := stepT * rtec.Time(ratio)

		// (a) Exact loss count from the query schedule: an SDE is
		// processed iff some query time Q >= its arrival has the
		// occurrence inside (Q-WM, Q].
		lost := 0
		for _, sde := range sdes {
			if !coveredByAnyQuery(sde, from, until, stepT, wm) {
				lost++
			}
		}

		// (b) Recognition accuracy with that window.
		sys, err := insight.New(insight.Config{City: city, WorkingMemory: wm, Step: stepT, Partitions: 1})
		if err != nil {
			log.Fatal(err)
		}
		recognised := eval.NewTimeline()
		err = sys.Run(context.Background(), from, until, func(r *insight.Report) error {
			for kv, l := range r.Result.Fluents[traffic.ScatsCongestion] {
				recognised.Add(kv.Key, l)
			}
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		var keys []string
		sensorPos := make(map[string]int)
		for i := range city.Sensors() {
			s := &city.Sensors()[i]
			keys = append(keys, s.ID)
			sensorPos[s.ID] = i
		}
		conf, err := eval.Score(keys, recognised.Get,
			func(key string, tm interval.Time) bool {
				s := &city.Sensors()[sensorPos[key]]
				return city.IsCongested(s.Pos, tm)
			},
			interval.Span{Start: from, End: until}, 60)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(w, "%d\t%d\t%.2f%%\t%.3f\t%.3f\n",
			ratio, lost, 100*float64(lost)/float64(len(sdes)), conf.F1(), conf.Recall())
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nShape to check: with WM = step, every SDE delayed past its query")
	fmt.Println("time is lost for good; WM = 2-3x step recovers effectively all of")
	fmt.Println("them (Figure 2), at the recognition cost measured by rtecbench.")
}

// coveredByAnyQuery reports whether the SDE is inside the working
// memory of at least one query at which it has already arrived.
func coveredByAnyQuery(sde dublin.SDE, from, until, step, wm rtec.Time) bool {
	// First query time at or after the arrival.
	k := (sde.Arrival - from + step - 1) / step
	if k < 1 {
		k = 1
	}
	q := from + k*step
	// The occurrence leaves the window once occurrence <= Q-WM, so
	// only the first eligible query can matter beyond the range check.
	for ; q <= until; q += step {
		if sde.Event.Time > q-wm && sde.Event.Time <= q {
			return true
		}
		if sde.Event.Time <= q-wm {
			return false
		}
	}
	return false
}
