package main

import (
	"fmt"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// workload is one named input and the public entry point it is driven
// through. Each is sized so that one rep (set-up plus run) takes a few
// seconds on two cores: the driver's budget is ~37 s per invocation,
// which must hold three timed reps. README.md records what was cut from
// the sizes the issue first proposed, and why each workload exists.
type workload struct {
	name string
	// city is the synthetic city for a seed; the program under test
	// only ever sees the streams generated from it.
	city func(seed int64) dublin.Config
	// from/until bound the simulated stream, wm/step the RTEC window.
	from, until, wm, step insight.Time
	// durable drives BuildDurablePipeline (SyncAlways, a checkpoint at
	// every boundary) instead of BuildPipeline.
	durable bool
	// operator drives System.RunReplay over a pre-collected stream with
	// the default Config plus FlowMap in the report callback, as
	// cmd/trafficmon users run it; the other workloads drive a sharded
	// columnar Pipeline.
	operator bool
}

const hour = insight.Time(3600)

var workloads = []workload{
	{
		// The product configuration at paper scale: the WAL and a
		// checkpoint at every boundary do the work, so a streams/wal or
		// checkpoint change shows here and nowhere else.
		name: "dublin1x-durable",
		city: func(seed int64) dublin.Config { return dublin.Config{Seed: seed} },
		from: 7 * hour, until: 7*hour + 2700, wm: 1800, step: 900,
		durable: true,
	},
	{
		// Ten times the buses and sensors with durability bypassed: window
		// state is large and rtec/traffic rule evaluation dominates, so a
		// rule or store kernel change shows here and a WAL change must not.
		name: "dublin10x-recognize",
		city: dublin.Profile10x,
		from: 7 * hour, until: 7*hour + 480, wm: 480, step: 240,
	},
	{
		// MaxDelay 600 (default 45) and WM = 4*Step: the same store and
		// engine doing out-of-order block merges, dirty-watermark shrinking
		// and overlap-cache re-evaluation instead of append and mostly
		// fresh windows.
		name: "dublin1x-late",
		city: func(seed int64) dublin.Config { return dublin.Config{Seed: seed, MaxDelay: 600} },
		from: 6 * hour, until: 9 * hour, wm: 3600, step: 900,
	},
	{
		// What cmd/trafficmon users run: default Config (row store, 4
		// partitions, per-event Input), 200 participants and FlowMap per
		// report; the only workload where crowd, crowd/qee and gp work.
		name: "dublin1x-operator",
		city: func(seed int64) dublin.Config { return dublin.Config{Seed: seed, NoisyBusFraction: 0.25} },
		from: 6 * hour, until: 9 * hour, wm: 1800, step: 900,
		operator: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// miniature shrinks a workload to 24 buses, 24 sensors and one
// simulated hour: the smoke test's scale, and the warm-up rep's.
func (w workload) miniature() workload {
	city := w.city
	w.city = func(seed int64) dublin.Config {
		cfg := city(seed)
		cfg.NumBuses, cfg.NumSensors = 24, 24
		return cfg
	}
	w.until = w.from + hour
	return w
}

func (w *workload) boundaries() int {
	return int((w.until - w.from) / w.step)
}

var trafficConfig = traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}

// participants places the crowdsourcing volunteers as cmd/trafficmon
// does.
func participants(city *dublin.City, n int) []insight.SimParticipant {
	inters := city.Intersections()
	var vols []insight.SimParticipant
	for i := 0; i < n && len(inters) > 0; i++ {
		vols = append(vols, insight.SimParticipant{
			ID:        fmt.Sprintf("vol%03d", i),
			Pos:       inters[(i*7)%len(inters)].Pos,
			ErrorProb: 0.05 + 0.02*float64(i%10),
			Network:   qee.Network(i % 3),
		})
	}
	return vols
}

// system assembles a fresh System for one run over city.
func (w *workload) system(city *dublin.City, seed int64) (*insight.System, error) {
	if w.operator {
		return insight.New(insight.Config{
			City:         city,
			Seed:         seed,
			Participants: participants(city, 200),
			Traffic:      trafficConfig,
		})
	}
	return insight.New(insight.Config{
		City:              city,
		Seed:              seed,
		WorkingMemory:     w.wm,
		Step:              w.step,
		Shards:            2,
		Store:             rtec.StoreColumn,
		ColumnarTransport: true,
		UnpacedReplay:     true,
		Traffic:           trafficConfig,
	})
}

// pipeline builds the workload's Pipeline over sys. dur selects the
// durable builder; nil builds the plain one. Either call generates the
// input stream, so building is part of set-up.
func (w *workload) pipeline(sys *insight.System, dur *insight.DurableOptions) (*insight.Pipeline, error) {
	if dur == nil {
		return sys.BuildPipeline(w.from, w.until)
	}
	pipe, _, err := sys.BuildDurablePipeline(w.from, w.until, *dur)
	return pipe, err
}
