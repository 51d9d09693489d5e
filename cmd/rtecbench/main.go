// Command rtecbench regenerates Figure 4 of the paper: average CE
// recognition time as a function of the working memory size, for
// static and self-adaptive event recognition, with the stream
// partitioned over the four Dublin regions.
//
// Usage:
//
//	rtecbench [-buses 942] [-sensors 966] [-city 1x] [-runs 3] [-wm 10,30,50,70,90,110] [-step 0] [-full]
//	          [-cpuprofile file] [-memprofile file]
//
// The defaults reproduce the paper's full scale (942 buses, 966 SCATS
// sensors); recognition times then land in the same regime as the
// paper's Prolog implementation (single-digit seconds at WM = 110 min).
// -city 10x runs dublin.Profile10x instead (9420 buses, 9660 sensors on
// a ten times denser street grid; -buses and -sensors are ignored).
// -cpuprofile and -memprofile write pprof profiles of the whole run.
//
// With -step N the benchmark switches to the sliding-window regime of
// Figure 2 (WM > step): SDEs are delivered by arrival time and a query
// runs every N minutes over one monitored hour; the reported figure is
// the average per-query recognition time. -full disables the engine's
// incremental overlap caching (Options.ForceFullRecompute), which is
// the baseline to compare -step runs against.
//
// With -batch the benchmark instead compares the two ingest paths into
// the RTEC store for one working-memory window (the first -wm entry):
// the captured map path — every delivered batch row decoded into an
// attribute map and fed as one event — against the columnar path that
// appends the column blocks directly. Both feed the same delivered
// batches, the recognition query runs after each measured feed, and
// the CE output of the two paths is checked for equality before the
// ratios are printed.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// storeKind is the working-memory representation every benchmark mode
// builds its engines with (-store flag).
var storeKind rtec.StoreKind

func main() {
	log.SetFlags(0)
	log.SetPrefix("rtecbench: ")
	var (
		buses   = flag.Int("buses", 942, "bus fleet size")
		sensors = flag.Int("sensors", 966, "SCATS sensor count")
		runs    = flag.Int("runs", 3, "measurement repetitions per point")
		wmList  = flag.String("wm", "10,30,50,70,90,110", "working memory sizes in minutes")
		seed    = flag.Int64("seed", 1, "city seed")
		profile = flag.Bool("profile", false, "print the per-rule cost breakdown of the largest window")
		stepMin = flag.Int("step", 0, "query step in minutes; 0 = one window per measurement, >0 = sliding-window regime")
		full    = flag.Bool("full", false, "disable incremental overlap caching (full recompute baseline)")
		batch   = flag.Bool("batch", false, "compare map-decode vs columnar-block ingest (uses the first -wm entry)")
		store   = flag.String("store", "row", "RTEC working-memory store: row (per-event records) or column (resident column blocks)")
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

	switch *store {
	case "row":
		storeKind = rtec.StoreRow
	case "column":
		storeKind = rtec.StoreColumn
	default:
		log.Fatalf("invalid -store %q (want row or column)", *store)
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
		*buses, *sensors = cityCfg.NumBuses, cityCfg.NumSensors
	default:
		log.Fatalf("invalid -city %q (want 1x or 10x)", *scale)
	}
	city, err := dublin.NewCity(cityCfg)
	if err != nil {
		log.Fatal(err)
	}
	reg, err := city.Registry(150)
	if err != nil {
		log.Fatal(err)
	}

	if *batch {
		runBatch(city, reg, rtec.Time(wms[0]*60), *buses, *sensors, *runs)
		return
	}

	if *stepMin > 0 {
		fmt.Printf("Sliding-window recognition (step = %d min, one monitored hour", *stepMin)
		if *full {
			fmt.Printf(", full recompute")
		}
		fmt.Printf(")\n")
	} else {
		fmt.Printf("Figure 4 — CE recognition time vs working memory\n")
	}
	fmt.Printf("city: %d buses, %d SCATS sensors, 4 partitions, %d runs/point\n\n", *buses, *sensors, *runs)

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	if *stepMin > 0 {
		fmt.Fprintln(w, "WM\tSDEs\tqueries\tstatic/query\tself-adaptive/query\toverhead")
	} else {
		fmt.Fprintln(w, "WM\tSDEs\tstatic\tself-adaptive\toverhead")
	}
	for _, wmMin := range wms {
		wm := rtec.Time(wmMin * 60)
		from := rtec.Time(7 * 3600) // morning rush
		if *stepMin > 0 {
			step := rtec.Time(*stepMin * 60)
			sdes := city.Collect(from, from+3600)
			queries := int(3600 / step)
			staticT := measureSliding(reg, false, wm, step, from, sdes, *runs, *full)
			adaptiveT := measureSliding(reg, true, wm, step, from, sdes, *runs, *full)
			overhead := 100 * (adaptiveT.Seconds() - staticT.Seconds()) / staticT.Seconds()
			fmt.Fprintf(w, "%d min\t%dK\t%d\t%.0fms\t%.0fms\t%+.1f%%\n",
				wmMin, len(sdes)/1000, queries,
				1000*staticT.Seconds()/float64(queries), 1000*adaptiveT.Seconds()/float64(queries), overhead)
			continue
		}
		sdes := city.Collect(from, from+wm)
		events := make([]rtec.Event, len(sdes))
		for i, s := range sdes {
			events[i] = s.Event
		}
		staticT := measure(reg, false, wm, from, events, *runs, *full)
		adaptiveT := measure(reg, true, wm, from, events, *runs, *full)
		overhead := 100 * (adaptiveT.Seconds() - staticT.Seconds()) / staticT.Seconds()
		fmt.Fprintf(w, "%d min\t%dK\t%.2fs\t%.2fs\t%+.1f%%\n",
			wmMin, len(events)/1000, staticT.Seconds(), adaptiveT.Seconds(), overhead)
	}
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nShapes to check against the paper: time grows ~linearly with WM;")
	fmt.Println("self-adaptive recognition has minimal overhead; every point stays")
	fmt.Println("well below the window length (real-time recognition).")

	if *profile {
		wm := rtec.Time(wms[len(wms)-1] * 60)
		from := rtec.Time(7 * 3600)
		sdes := city.Collect(from, from+wm)
		events := make([]rtec.Event, len(sdes))
		for i, s := range sdes {
			events[i] = s.Event
		}
		defs, err := traffic.Build(traffic.Config{
			Registry: reg, Adaptive: true, NoisyPolicy: traffic.Pessimistic,
		})
		if err != nil {
			log.Fatal(err)
		}
		part, err := rtec.NewPartitioned(defs,
			rtec.Options{WorkingMemory: wm, Step: wm, Profile: true, Store: storeKind},
			4, func(e rtec.Event) int { return dublin.PartitionOf(e) })
		if err != nil {
			log.Fatal(err)
		}
		if err := part.Input(events...); err != nil {
			log.Fatal(err)
		}
		results, err := part.Query(from + wm)
		if err != nil {
			log.Fatal(err)
		}
		merged := rtec.MergeResults(results)
		type cost struct {
			name string
			d    time.Duration
		}
		var costs []cost
		var total time.Duration
		for name, d := range merged.RuleCosts {
			costs = append(costs, cost{name, d})
			total += d
		}
		sort.Slice(costs, func(i, j int) bool { return costs[i].d > costs[j].d })
		fmt.Printf("\nper-rule cost at WM = %d min (self-adaptive; total work %.2fs across partitions):\n",
			wms[len(wms)-1], total.Seconds())
		for _, c := range costs {
			fmt.Printf("  %-22s %8.0f ms  (%4.1f%%)\n",
				c.name, c.d.Seconds()*1000, 100*c.d.Seconds()/total.Seconds())
		}
	}
}

// runBatch is the -batch mode: the same delivered SDE batches of one
// working-memory window enter the partitioned RTEC store through the
// captured map path (decode each row into an attribute map, feed the
// resulting event) and through the columnar path (append the column
// blocks directly). Reported times are best-of-runs wall clock of the
// feed phase; allocation counts come from runtime.MemStats deltas and
// are deterministic. The recognition query runs after every measured
// feed and the derived CE output of the two paths is compared before
// anything is printed.
func runBatch(city *dublin.City, reg *traffic.Registry, wm rtec.Time, buses, sensors, runs int) {
	from := rtec.Time(7 * 3600)
	defs, err := traffic.Build(traffic.Config{Registry: reg, NoisyPolicy: traffic.Pessimistic})
	if err != nil {
		log.Fatal(err)
	}
	bstreams := city.CollectBatches(from, from+wm, 512, 0)
	var batches []*streams.Batch
	var blocks []*rtec.Block
	n := 0
	for _, bs := range bstreams {
		for _, b := range bs.Batches {
			batches = append(batches, b)
			blocks = append(blocks, dublin.Block(b))
			n += b.Len()
		}
	}
	newPart := func() *rtec.Partitioned {
		// Profile turns on the resident-store accounting; it only adds
		// work inside Query, which the feed timer never covers.
		part, err := rtec.NewPartitioned(defs,
			rtec.Options{WorkingMemory: wm, Step: wm, Profile: true, Store: storeKind},
			4, func(e rtec.Event) int { return dublin.PartitionOf(e) })
		if err != nil {
			log.Fatal(err)
		}
		part.SetBlockAssign(dublin.PartitionOfBlock)
		return part
	}
	feedMap := func(part *rtec.Partitioned) {
		for _, b := range batches {
			rows := b.Len()
			for r := 0; r < rows; r++ {
				attrs := make(map[string]any, len(b.Cols))
				for ci := range b.Cols {
					c := &b.Cols[ci]
					attrs[c.Name] = c.Value(r)
				}
				if err := part.Input(rtec.NewEvent(b.Type, rtec.Time(b.Times[r]), b.Keys[r], attrs)); err != nil {
					log.Fatal(err)
				}
			}
		}
	}
	feedColumnar := func(part *rtec.Partitioned) {
		for _, blk := range blocks {
			if err := part.InputBlock(blk); err != nil {
				log.Fatal(err)
			}
		}
	}
	type outcome struct {
		best       time.Duration
		allocsPerE float64
		resident   uint64
		fp         string
	}
	measureFeed := func(feed func(*rtec.Partitioned)) outcome {
		var out outcome
		for r := 0; r < runs; r++ {
			part := newPart()
			runtime.GC()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			start := time.Now()
			feed(part)
			elapsed := time.Since(start)
			runtime.ReadMemStats(&m1)
			if r == 0 || elapsed < out.best {
				out.best = elapsed
			}
			out.allocsPerE = float64(m1.Mallocs-m0.Mallocs) / float64(n)
			res, err := part.Query(from + wm)
			if err != nil {
				log.Fatal(err)
			}
			merged := rtec.MergeResults(res)
			out.resident = merged.Stats.ResidentBytes
			fp := derivedFingerprint(merged)
			if out.fp == "" {
				out.fp = fp
			} else if fp != out.fp {
				log.Fatalf("CE output varies between runs of the same path")
			}
		}
		return out
	}

	fmt.Printf("Ingest path — map decode vs columnar blocks\n")
	fmt.Printf("city: %d buses, %d SCATS sensors, 4 partitions; WM = %d min, %d SDEs, best of %d runs\n\n",
		buses, sensors, int(wm)/60, n, runs)
	mapOut := measureFeed(feedMap)
	colOut := measureFeed(feedColumnar)
	if mapOut.fp != colOut.fp {
		log.Fatalf("CE output differs between the map and columnar paths")
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "path\ttime\tns/SDE\tSDE/s\tallocs/SDE\tres-B/SDE")
	row := func(name string, o outcome) {
		perE := float64(o.best.Nanoseconds()) / float64(n)
		fmt.Fprintf(w, "%s\t%.1fms\t%.0f\t%.0fK\t%.2f\t%.0f\n",
			name, o.best.Seconds()*1000, perE, float64(n)/o.best.Seconds()/1000, o.allocsPerE,
			float64(o.resident)/float64(n))
	}
	row("map", mapOut)
	row("columnar", colOut)
	fmt.Fprintf(w, "ratio\t%.1fx\t\t\t%.1fx\n",
		mapOut.best.Seconds()/colOut.best.Seconds(), mapOut.allocsPerE/colOut.allocsPerE)
	if err := w.Flush(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCE output: identical on both paths (%d derived-event fingerprint bytes)\n", len(colOut.fp))
	for _, b := range batches {
		b.Release()
	}
}

// derivedFingerprint renders the recognition output of one query as a
// canonical string: derived events, fresh events and fluent intervals.
// Equal fingerprints mean the two ingest paths recognised exactly the
// same complex events.
func derivedFingerprint(res *rtec.Result) string {
	var sb strings.Builder
	types := make([]string, 0, len(res.Derived))
	for typ := range res.Derived {
		types = append(types, typ)
	}
	sort.Strings(types)
	for _, typ := range types {
		for _, ev := range res.Derived[typ] {
			fmt.Fprintf(&sb, "derived %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
		}
	}
	for _, ev := range res.Fresh {
		fmt.Fprintf(&sb, "fresh %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
	}
	fluents := make([]string, 0, len(res.Fluents))
	for name := range res.Fluents {
		fluents = append(fluents, name)
	}
	sort.Strings(fluents)
	for _, name := range fluents {
		insts := res.Fluents[name]
		keys := make([]rtec.KV, 0, len(insts))
		for kv := range insts {
			keys = append(keys, kv)
		}
		sort.Slice(keys, func(i, j int) bool {
			if keys[i].Key != keys[j].Key {
				return keys[i].Key < keys[j].Key
			}
			return keys[i].Value < keys[j].Value
		})
		for _, kv := range keys {
			fmt.Fprintf(&sb, "fluent %s|%s=%s|%s\n", name, kv.Key, kv.Value, insts[kv].String())
		}
	}
	return sb.String()
}

func measure(reg *traffic.Registry, adaptive bool, wm, from rtec.Time, events []rtec.Event, runs int, full bool) time.Duration {
	defs, err := traffic.Build(traffic.Config{
		Registry:    reg,
		Adaptive:    adaptive,
		NoisyPolicy: traffic.Pessimistic,
	})
	if err != nil {
		log.Fatal(err)
	}
	var total time.Duration
	for r := 0; r < runs; r++ {
		part, err := rtec.NewPartitioned(defs,
			rtec.Options{WorkingMemory: wm, Step: wm, ForceFullRecompute: full, Store: storeKind},
			4, func(e rtec.Event) int { return dublin.PartitionOf(e) })
		if err != nil {
			log.Fatal(err)
		}
		if err := part.Input(events...); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, err := part.Query(from + wm); err != nil {
			log.Fatal(err)
		}
		total += time.Since(start)
	}
	return total / time.Duration(runs)
}

// measureSliding runs the WM > step regime: SDEs are delivered by
// mediator arrival time, a query fires every step over one monitored
// hour, and the returned duration is the total recognition time of the
// hour (divide by the query count for a per-query average).
func measureSliding(reg *traffic.Registry, adaptive bool, wm, step, from rtec.Time, sdes []dublin.SDE, runs int, full bool) time.Duration {
	defs, err := traffic.Build(traffic.Config{
		Registry:    reg,
		Adaptive:    adaptive,
		NoisyPolicy: traffic.Pessimistic,
	})
	if err != nil {
		log.Fatal(err)
	}
	var total time.Duration
	for r := 0; r < runs; r++ {
		part, err := rtec.NewPartitioned(defs,
			rtec.Options{WorkingMemory: wm, Step: step, ForceFullRecompute: full, Store: storeKind},
			4, func(e rtec.Event) int { return dublin.PartitionOf(e) })
		if err != nil {
			log.Fatal(err)
		}
		cursor := 0
		for q := from + step; q <= from+3600; q += step {
			for cursor < len(sdes) && sdes[cursor].Arrival <= q {
				if err := part.Input(sdes[cursor].Event); err != nil {
					log.Fatal(err)
				}
				cursor++
			}
			start := time.Now()
			if _, err := part.Query(q); err != nil {
				log.Fatal(err)
			}
			total += time.Since(start)
		}
	}
	return total / time.Duration(runs)
}
