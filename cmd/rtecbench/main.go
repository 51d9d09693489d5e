// Command rtecbench regenerates Figure 4 of the paper: CE recognition
// time as a function of the working memory size, for static and
// self-adaptive event recognition, with the stream partitioned over the
// four Dublin regions.
//
// Usage:
//
//	rtecbench [-buses 942] [-sensors 966] [-city 1x] [-runs 3] [-wm 10,30,50,70,90,110] [-step 0]
//	          [-cpuprofile file] [-memprofile file]
//
// It measures the system people run: an insight.System in its default
// configuration (column store, four regional engines, SDEs admitted by
// arrival time as column blocks) evaluated through Run, the reported
// time being Report.Stats.Elapsed — the recognition time of the query,
// best of -runs. The defaults reproduce the paper's full scale (942
// buses, 966 SCATS sensors). -city 10x runs dublin.Profile10x instead
// (9420 buses, 9660 sensors on a ten times denser street grid; -buses
// and -sensors are ignored). -cpuprofile and -memprofile write pprof
// profiles of the whole run; the per-rule cost breakdown is
// `e2ebench -trace 1` (traffic.rule_ms.*).
//
// By default every measurement is one query over one window (Step =
// WM). With -step N the benchmark switches to the sliding-window regime
// of Figure 2 (WM > step): a query runs every N minutes over one
// monitored hour and the reported figure is the average per-query
// recognition time.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtecbench: ")
	var (
		buses   = flag.Int("buses", 942, "bus fleet size")
		sensors = flag.Int("sensors", 966, "SCATS sensor count")
		runs    = flag.Int("runs", 3, "measurement repetitions per point (the best is reported)")
		wmList  = flag.String("wm", "10,30,50,70,90,110", "working memory sizes in minutes")
		seed    = flag.Int64("seed", 1, "city seed")
		stepMin = flag.Int("step", 0, "query step in minutes; 0 = one window per measurement, >0 = sliding-window regime")
		scale   = flag.String("city", "1x", "city profile: 1x (-buses/-sensors on the default street grid) or 10x (dublin.Profile10x)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = flag.String("memprofile", "", "write a heap profile taken at the end of the run to this file")
	)
	flag.Parse()
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				log.Fatal(err)
			}
			runtime.GC() // settle the live heap before sampling it
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
	}

	var wms []int
	for _, part := range strings.Split(*wmList, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v <= 0 {
			log.Fatalf("invalid -wm entry %q", part)
		}
		wms = append(wms, v)
	}

	cityCfg := dublin.Config{Seed: *seed, NumBuses: *buses, NumSensors: *sensors}
	switch *scale {
	case "1x":
	case "10x":
		cityCfg = dublin.Profile10x(*seed)
	default:
		log.Fatalf("invalid -city %q (want 1x or 10x)", *scale)
	}
	city, err := dublin.NewCity(cityCfg)
	if err != nil {
		log.Fatal(err)
	}

	sliding := *stepMin > 0
	if sliding {
		fmt.Printf("Sliding-window recognition (step = %d min, one monitored hour)\n", *stepMin)
	} else {
		fmt.Printf("Figure 4 — CE recognition time vs working memory\n")
	}
	fmt.Printf("city: %d buses, %d SCATS sensors, 4 partitions, best of %d runs/point\n\n", cityCfg.NumBuses, cityCfg.NumSensors, *runs)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if sliding {
		fmt.Fprintln(w, "WM\tSDEs\tqueries\tstatic/query\tself-adaptive/query\toverhead")
	} else {
		fmt.Fprintln(w, "WM\tSDEs\tstatic\tself-adaptive\toverhead")
	}
	for _, wmMin := range wms {
		wm := rtec.Time(wmMin * 60)
		from := rtec.Time(7 * 3600) // morning rush
		step, until := wm, from+wm
		if sliding {
			step, until = rtec.Time(*stepMin*60), from+3600
		}
		staticT, fed, queries := measure(city, false, wm, step, from, until, *runs)
		adaptiveT, _, _ := measure(city, true, wm, step, from, until, *runs)
		overhead := 100 * (adaptiveT.Seconds() - staticT.Seconds()) / staticT.Seconds()
		if sliding {
			fmt.Fprintf(w, "%d min\t%d\t%d\t%.1fms\t%.1fms\t%+.1f%%\n", wmMin, fed, queries,
				1000*staticT.Seconds()/float64(queries), 1000*adaptiveT.Seconds()/float64(queries), overhead)
		} else {
			fmt.Fprintf(w, "%d min\t%d\t%.3fs\t%.3fs\t%+.1f%%\n", wmMin, fed, staticT.Seconds(), adaptiveT.Seconds(), overhead)
		}
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nShapes to check against the paper: time grows ~linearly with WM;")
	fmt.Println("self-adaptive recognition has minimal overhead; every point stays")
	fmt.Println("well below the window length (real-time recognition).")
}

// measure runs the system over [from, until) with a query every step
// and returns the total recognition time of the run's queries — the
// best of runs — with the number of SDEs admitted and of queries.
func measure(city *dublin.City, adaptive bool, wm, step, from, until rtec.Time, runs int) (best time.Duration, fed, queries int) {
	for r := 0; r < runs; r++ {
		sys, err := insight.New(insight.Config{
			City:          city,
			WorkingMemory: wm,
			Step:          step,
			Traffic:       traffic.Config{Adaptive: adaptive, NoisyPolicy: traffic.Pessimistic},
		})
		if err != nil {
			log.Fatal(err)
		}
		var total time.Duration
		fed, queries = 0, 0
		err = sys.Run(context.Background(), from, until, func(rep *insight.Report) error {
			total += rep.Stats.Elapsed
			fed += rep.FedEvents
			queries++
			return nil
		})
		if err != nil {
			log.Fatal(err)
		}
		if r == 0 || total < best {
			best = total
		}
	}
	return best, fed, queries
}
