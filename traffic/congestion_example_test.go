package traffic_test

import (
	"fmt"
	"log"
	"sort"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Congestion: using the CEP layer directly. This example scripts a
// small scenario over two SCATS intersections and one bus line, builds
// the paper's CE definitions PLUS a custom "gridlockRisk" complex
// event on top of them, and walks through three query times, printing
// the recognised fluents — including how a delayed SDE is recovered by
// a window larger than the step (Figure 2 of the paper).
// Run it with: go test -run Example_congestion -v ./traffic
func Example_congestion() {
	// Two intersections on the quays.
	posA := geo.At(53.3466, -6.2756)
	posB := geo.At(53.3471, -6.2621)
	registry, err := traffic.NewRegistry([]traffic.Intersection{
		{ID: "bachelors-walk", Pos: posA, Sensors: []string{"s1", "s2"}},
		{ID: "oconnell-bridge", Pos: posB, Sensors: []string{"s3"}},
	}, 120)
	if err != nil {
		log.Fatal(err)
	}

	// Start from the paper's definitions...
	cfg := traffic.Config{Registry: registry}
	defs, err := buildWithGridlock(cfg)
	if err != nil {
		log.Fatal(err)
	}

	engine, err := rtec.NewEngine(defs, rtec.Options{
		WorkingMemory: 1200, // 20 min
		Step:          600,  // 10 min — window > step absorbs delays
	})
	if err != nil {
		log.Fatal(err)
	}

	busAt := func(t rtec.Time, pos geo.Point, delay int64, congested bool) rtec.Event {
		return traffic.Move(t, "bus33009", "r10", "DublinBus", delay, pos, 0, congested)
	}

	// t=100..460: both sensors of bachelors-walk congested; the bus
	// crawls past it with growing delay.
	if err := engine.Input(
		traffic.Traffic(100, "s1", "bachelors-walk", "A1", 0.7, 250),
		traffic.Traffic(100, "s2", "bachelors-walk", "A2", 0.8, 180),
		traffic.Traffic(100, "s3", "oconnell-bridge", "A1", 0.1, 1100),
		traffic.Traffic(400, "s1", "bachelors-walk", "A1", 0.85, 160), // density still climbing
		busAt(120, posA, 60, true),
		busAt(145, posA, 190, true), // +130 s delay in 25 s → delayIncrease
	); err != nil {
		log.Fatal(err)
	}

	printQuery(engine, 600)

	// A DELAYED SDE: it occurred at t=580 (inside the previous step)
	// but arrives only now. The 20-minute window still covers it.
	if err := engine.Input(
		busAt(580, posB, 200, true), // late arrival
		traffic.Traffic(820, "s1", "bachelors-walk", "A1", 0.15, 1000),
		traffic.Traffic(820, "s2", "bachelors-walk", "A2", 0.12, 1050),
	); err != nil {
		log.Fatal(err)
	}

	printQuery(engine, 1200)
	printQuery(engine, 1800)
	// Output:
	// — query time 600 (window [-599, 601), 6 SDEs)
	//    holdsFor(scatsCongestion(s1)=true, [101, 601))
	//    holdsFor(scatsCongestion(s2)=true, [101, 601))
	//    holdsFor(scatsIntCongestion(bachelors-walk)=true, [101, 601))
	//    holdsFor(busCongestion(bachelors-walk)=true, [121, 601))
	//    holdsFor(gridlockRisk(bachelors-walk)=true, [401, 601))
	//    happensAt(delayIncrease(bus33009, +130 s), 145)
	//
	// — query time 1200 (window [1, 1201), 9 SDEs)
	//    holdsFor(scatsCongestion(s1)=true, [101, 821))
	//    holdsFor(scatsCongestion(s2)=true, [101, 821))
	//    holdsFor(scatsIntCongestion(bachelors-walk)=true, [101, 821))
	//    holdsFor(busCongestion(bachelors-walk)=true, [121, 1201))
	//    holdsFor(busCongestion(oconnell-bridge)=true, [581, 1201))
	//    holdsFor(sourceDisagreement(bachelors-walk)=true, [821, 1201))
	//    holdsFor(sourceDisagreement(oconnell-bridge)=true, [581, 1201))
	//    holdsFor(gridlockRisk(bachelors-walk)=true, [401, 821))
	//    happensAt(delayIncrease(bus33009, +130 s), 145)
	//
	// — query time 1800 (window [601, 1801), 2 SDEs)
	//    holdsFor(scatsCongestion(s1)=true, [601, 821))
	//    holdsFor(scatsCongestion(s2)=true, [601, 821))
	//    holdsFor(scatsIntCongestion(bachelors-walk)=true, [601, 821))
	//    holdsFor(busCongestion(bachelors-walk)=true, [601, 1801))
	//    holdsFor(busCongestion(oconnell-bridge)=true, [601, 1801))
	//    holdsFor(sourceDisagreement(bachelors-walk)=true, [821, 1801))
	//    holdsFor(sourceDisagreement(oconnell-bridge)=true, [601, 1801))
	//    holdsFor(gridlockRisk(bachelors-walk)=true, [601, 821))
}

// buildWithGridlock extends the paper's definition set with a custom
// statically determined fluent: gridlockRisk holds at an intersection
// while the intersection is congested AND its density trend keeps
// rising — congestion that is still getting worse.
func buildWithGridlock(cfg traffic.Config) (*rtec.Definitions, error) {
	return traffic.BuildWith(cfg, func(b *rtec.Builder) {
		b.Static(rtec.StaticFluent{
			Name:   "gridlockRisk",
			Inputs: []string{traffic.ScatsIntCongestion, traffic.DensityTrend},
			HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
				out := make(map[rtec.KV]rtec.IntervalList)
				for _, in := range cfg.Registry.Intersections() {
					congested := ctx.Intervals(traffic.ScatsIntCongestion, in.ID)
					if len(congested) == 0 {
						continue
					}
					// Union of rising-density periods across the
					// intersection's sensors.
					var rising []interval.List
					for _, s := range in.Sensors {
						rising = append(rising,
							ctx.IntervalsValue(traffic.DensityTrend, s, traffic.TrendRising))
					}
					risk := interval.Intersect(congested, interval.UnionAll(rising...))
					if len(risk) > 0 {
						out[rtec.KV{Key: in.ID, Value: rtec.TrueValue}] = risk
					}
				}
				return out
			},
		})
		b.Output("gridlockRisk")
	})
}

// printQuery prints one query's fluents, each fluent's instances in
// key order.
func printQuery(e *rtec.Engine, q rtec.Time) {
	res, err := e.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("— query time %d (window %v, %d SDEs)\n", int64(q), res.Window, res.Stats.InputEvents)
	for _, fluent := range []string{
		traffic.ScatsCongestion, traffic.ScatsIntCongestion,
		traffic.BusCongestion, traffic.SourceDisagreement, "gridlockRisk",
	} {
		kvs := make([]rtec.KV, 0, len(res.Fluents[fluent]))
		for kv := range res.Fluents[fluent] {
			kvs = append(kvs, kv)
		}
		sort.Slice(kvs, func(i, j int) bool {
			if kvs[i].Key != kvs[j].Key {
				return kvs[i].Key < kvs[j].Key
			}
			return kvs[i].Value < kvs[j].Value
		})
		for _, kv := range kvs {
			fmt.Printf("   holdsFor(%s(%s)=%s, %v)\n", fluent, kv.Key, kv.Value, res.Fluents[fluent][kv])
		}
	}
	for _, ev := range res.Derived[traffic.DelayIncrease] {
		growth, _ := ev.Int("delayGrowth")
		fmt.Printf("   happensAt(delayIncrease(%s, +%d s), %d)\n", ev.Key, growth, int64(ev.Time))
	}
	fmt.Println()
}
