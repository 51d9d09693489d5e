package main

import (
	"context"
	"fmt"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/eval"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// figureShards is the tier every scenario runs, Config.Shards as
// cmd/trafficmon sets it; TestFiguresAnswerAsOneEngine holds it to one
// engine. No row names a tier.
const figureShards = 4

// scenario is one row of a table that runs the whole system: the city,
// the settings the row makes (run adds City, Participants and the
// tier), a fault profile (zero: the plain graph), the window and a
// target.
type scenario struct {
	name         string
	city         dublin.Config
	sys          insight.Config
	participants int
	chaos        map[string]streams.FaultSpec
	from, until  rtec.Time
	target       target
}

// target is a fluent whose recognised intervals are scored per key
// against the generator's congestion field at the key's position.
type target struct {
	fluent string
	sites  func(*dublin.City) map[string]geo.Point
}

func intersections(city *dublin.City) map[string]geo.Point {
	out := make(map[string]geo.Point)
	for _, in := range city.Intersections() {
		out[in.ID] = in.Pos
	}
	return out
}

func sensors(city *dublin.City) map[string]geo.Point {
	out := make(map[string]geo.Point)
	for _, s := range city.Sensors() {
		out[s.ID] = s.Pos
	}
	return out
}

// run builds the row's city and system on the figures' tier (one engine
// when t.oneEngine is set), runs its pipeline to the end, hands the
// reports to t.observe when set and, when the row has a target, scores
// it: the target fluent's intervals unioned over every report, sampled
// once a minute over the window against the ground truth. It is the one
// place a table builds an insight.System.
func (sc scenario) run(t *table) ([]*insight.Report, *insight.Pipeline, eval.Confusion, error) {
	var conf eval.Confusion
	city, err := dublin.NewCity(sc.city)
	if err != nil {
		return nil, nil, conf, err
	}
	cfg := sc.sys
	cfg.City = city
	if t.oneEngine {
		cfg.Partitions = 1
	} else {
		cfg.Shards = figureShards
	}
	inters := city.Intersections()
	for i := 0; i < sc.participants && len(inters) > 0; i++ {
		cfg.Participants = append(cfg.Participants, insight.SimParticipant{
			ID:        fmt.Sprintf("vol%02d", i),
			Pos:       inters[(i*5)%len(inters)].Pos,
			ErrorProb: 0.1,
			Network:   qee.Network(i % 3),
		})
	}
	sys, err := insight.New(cfg)
	if err != nil {
		return nil, nil, conf, err
	}
	pipe, _, err := sys.Pipeline(sc.from, sc.until, insight.PipelineOptions{Chaos: sc.chaos})
	if err != nil {
		return nil, nil, conf, err
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		return nil, nil, conf, err
	}
	if t.observe != nil {
		t.observe(sc.name, reports)
	}
	if sc.target.fluent == "" {
		return reports, pipe, conf, nil
	}
	recognised := eval.NewTimeline()
	for _, r := range reports {
		for kv, l := range r.Result.Fluents[sc.target.fluent] {
			recognised.Add(kv.Key, l)
		}
	}
	pos := sc.target.sites(city)
	var keys []string // any order: the confusion counts are sums
	for key := range pos {
		keys = append(keys, key)
	}
	conf, err = eval.Score(keys, recognised.Get,
		func(key string, tm interval.Time) bool { return city.IsCongested(pos[key], tm) },
		interval.Span{Start: sc.from, End: sc.until}, 60)
	return reports, pipe, conf, err
}

// figure4 regenerates Figure 4: CE recognition over one window of
// growing working memory (Step = WM) from the morning rush, static
// against self-adaptive, on the paper's full-scale city. The SDEs fed,
// derived events and fluent periods of each run are scored; the query
// times (Report.Stats.Elapsed, one run per point) are printed, not
// scored.
func figure4(t *table) error {
	const from = 7 * 3600
	city := dublin.Config{Seed: 1, NumBuses: 942, NumSensors: 966}
	fmt.Fprintf(t.out, "Figure 4 — CE recognition time vs working memory\n")
	fmt.Fprintf(t.out, "city: %d buses, %d SCATS sensors, %d shards, one run per point\n\n", city.NumBuses, city.NumSensors, figureShards)

	w := t.grid("WM\tSDEs\tstatic CEs\tstatic periods\tadaptive CEs\tadaptive periods\tstatic\tself-adaptive\toverhead")
	for _, wmMin := range []int{10, 30, 50, 70, 90, 110} {
		wm := rtec.Time(wmMin * 60)
		row := fmt.Sprintf("%d min", wmMin)
		// Per rule set, static then self-adaptive: SDEs fed, CEs,
		// periods and query time.
		var fed, ces, periods [2]int
		var took [2]time.Duration
		for i, mode := range []string{"static", "adaptive"} {
			reports, _, _, err := scenario{
				name: row + " " + mode,
				city: city,
				sys: insight.Config{WorkingMemory: wm, Step: wm,
					Traffic: traffic.Config{Adaptive: mode == "adaptive", NoisyPolicy: traffic.Pessimistic}},
				from:  from,
				until: from + wm,
			}.run(t)
			if err != nil {
				return err
			}
			for _, r := range reports {
				fed[i] += r.FedEvents
				ces[i] += r.Stats.DerivedEvents
				periods[i] += r.Stats.FluentPeriods
				took[i] += r.Stats.Elapsed
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\t%.3fs\t%.3fs\t%+.1f%%\n", row,
			t.score(row, "SDEs", "%.0f", float64(fed[0])),
			t.score(row, "static CEs", "%.0f", float64(ces[0])),
			t.score(row, "static periods", "%.0f", float64(periods[0])),
			t.score(row, "adaptive CEs", "%.0f", float64(ces[1])),
			t.score(row, "adaptive periods", "%.0f", float64(periods[1])),
			took[0].Seconds(), took[1].Seconds(),
			100*(took[1].Seconds()-took[0].Seconds())/took[0].Seconds())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(t.out, "\nCEs/periods: derived events and maximal fluent intervals; static/self-adaptive: query time (not scored)")
	fmt.Fprintln(t.out, "Shapes to check against the paper: time grows ~linearly with WM; self-adaptive recognition")
	fmt.Fprintln(t.out, "has minimal overhead; every point stays well below the window length (real-time recognition).")
	return nil
}

// veracity scores the paper's veracity-handling policies — trust every
// bus (3), discard disagreeing buses (3′+5), the same with crowd verdicts
// rehabilitating buses, distrust a bus only once the crowd confirms the
// sensors (3′+4) — by busCongestion per intersection against ground
// truth, on a city with 30 % faulty buses and 10 % faulty sensors.
func veracity(t *table) error {
	city := dublin.Config{Seed: 5, NumBuses: 150, NumSensors: 150, NoisyBusFraction: 0.3, NoisyScatsFraction: 0.1}
	row := func(name string, tc traffic.Config, participants int) scenario {
		return scenario{
			name:         name,
			city:         city,
			sys:          insight.Config{Seed: 5, WorkingMemory: 1800, Step: 900, Traffic: tc},
			participants: participants,
			from:         7 * 3600,
			until:        10 * 3600,
			target:       target{traffic.BusCongestion, intersections},
		}
	}
	rows := []scenario{
		row("static (rule-set 3)", traffic.Config{}, 0),
		row("self-adaptive (3'+5)", traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic}, 0),
		row("crowd-assisted (3'+5+crowd)", traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic}, 24),
		row("crowd-validated (3'+4+crowd)", traffic.Config{Adaptive: true, NoisyPolicy: traffic.CrowdValidated}, 24),
	}

	fmt.Fprintf(t.out, "veracity handling vs ground truth — %d buses (%.0f%% faulty), %d sensors (%.0f%% miscalibrated), %.1f h\n\n",
		city.NumBuses, city.NoisyBusFraction*100, city.NumSensors, city.NoisyScatsFraction*100, hours(rows[0]))
	w := t.grid("configuration\tprecision\trecall\tF1\taccuracy\tnoisy-bus flags")
	for _, sc := range rows {
		reports, _, conf, err := sc.run(t)
		if err != nil {
			return err
		}
		flags := 0
		for _, r := range reports {
			flags += len(r.NoisyBuses)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n", sc.name,
			t.score(sc.name, "precision", "%.3f", conf.Precision()),
			t.score(sc.name, "recall", "%.3f", conf.Recall()),
			t.score(sc.name, "F1", "%.3f", conf.F1()),
			t.score(sc.name, "accuracy", "%.3f", conf.Accuracy()),
			t.score(sc.name, "noisy-bus flags", "%.0f", float64(flags)))
	}
	return w.Flush()
}

// delay quantifies Figure 2's case for WM > step: per WM/step ratio, the
// delayed SDEs no query sees and scatsCongestion against ground truth.
func delay(t *table) error {
	const step = 300
	city := dublin.Config{Seed: 2, NumBuses: 120, NumSensors: 120, MaxDelay: 120}
	var rows []scenario
	for _, ratio := range []rtec.Time{1, 2, 3} {
		rows = append(rows, scenario{
			name:   fmt.Sprint(ratio),
			city:   city,
			sys:    insight.Config{WorkingMemory: ratio * step, Step: step},
			from:   7 * 3600,
			until:  9 * 3600,
			target: target{traffic.ScatsCongestion, sensors},
		})
	}
	c, err := dublin.NewCity(city)
	if err != nil {
		return err
	}
	sdes := c.Collect(rows[0].from, rows[0].until)
	fmt.Fprintf(t.out, "Figure 2 ablation — delayed SDEs vs working memory size\n")
	fmt.Fprintf(t.out, "%d SDEs over %.1f h, mediator delay up to %s, step %s\n\n",
		len(sdes), hours(rows[0]), time.Duration(city.MaxDelay)*time.Second, time.Duration(step)*time.Second)

	w := t.grid("WM/step\tlost SDEs\tlost %\tscats F1\tscats recall")
	for _, sc := range rows {
		lost := 0
		for _, sde := range sdes {
			if !coveredByAnyQuery(sde, sc.from, sc.until, sc.sys.Step, sc.sys.WorkingMemory) {
				lost++
			}
		}
		_, _, conf, err := sc.run(t)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%s\t%.2f%%\t%s\t%s\n", sc.name,
			t.score(sc.name, "lost SDEs", "%.0f", float64(lost)),
			100*float64(lost)/float64(len(sdes)),
			t.score(sc.name, "scats F1", "%.3f", conf.F1()),
			t.score(sc.name, "scats recall", "%.3f", conf.Recall()))
	}
	return w.Flush()
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

// chaos scores the pipeline under seeded fault profiles against its
// fault-free first row, crowdless so the crowd's shared random sequence
// cannot couple the input streams. The degraded and mean-lag columns
// depend on how the scheduler interleaves the sources: printed, not
// scored.
func chaos(t *table) error {
	const staleness = 1800
	// everyStream gives each stream spec, its seed stepped by seedStep
	// from one stream to the next.
	everyStream := func(spec streams.FaultSpec, seedStep int64) map[string]streams.FaultSpec {
		out := make(map[string]streams.FaultSpec)
		for _, id := range []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"} {
			out[id] = spec
			spec.Seed += seedStep
		}
		return out
	}
	row := func(name string, chaos map[string]streams.FaultSpec) scenario {
		return scenario{
			name: name,
			city: dublin.Config{Seed: 42, NumBuses: 60, NumSensors: 60, Hotspots: 15, NoisyBusFraction: 0.25},
			sys: insight.Config{Seed: 7, WorkingMemory: 1800, Step: 900, WatermarkStaleness: staleness,
				Traffic: traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}},
			chaos: chaos,
			from:  7 * 3600,
			until: 8 * 3600,
		}
	}
	rows := []scenario{
		row("fault-free", nil),
		row("stall-scats", map[string]streams.FaultSpec{
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 0},
		}),
		row("stall-recover", map[string]streams.FaultSpec{
			// 5 swallowed envelopes ≈ 2250 s of stream time: past the
			// staleness bound, then the backlog floods out.
			"scats-north": {Seed: 1, StallAfter: 1, StallFor: 5},
		}),
		row("drop", everyStream(streams.FaultSpec{Seed: 2, DropProb: 0.10}, 101)),
		row("dup", everyStream(streams.FaultSpec{Seed: 3, DupProb: 0.10}, 101)),
		row("delay", everyStream(streams.FaultSpec{Seed: 4, DelayProb: 0.20, DelayMax: 16}, 101)),
		// One seed for all five: ForStream parts the streams' draws.
		row("flaky-proc", everyStream(streams.FaultSpec{Seed: 5, ErrProb: 0.05}, 0)),
	}

	fmt.Fprintf(t.out, "pipeline under chaos — %d buses, %d sensors, %.1f h, staleness %d s\n\n",
		rows[0].city.NumBuses, rows[0].city.NumSensors, hours(rows[0]), staleness)
	w := t.grid("profile\treports\tdegraded\tprec\trecall\tmean lag\tinjected\tdead letters")
	var reference map[string]bool
	boundaries := 0
	for i, sc := range rows {
		reports, pipe, _, err := sc.run(t)
		if err != nil {
			return err
		}
		seen := positives(reports)
		injected := "-"
		if i == 0 {
			reference, boundaries = seen, len(reports)
		} else {
			n := 0
			for _, cs := range pipe.Chaos {
				st := cs.Stats()
				n += st.Dropped + st.Duplicated + st.Delayed + st.Stalled
			}
			for _, cp := range pipe.ChaosProcs {
				n += cp.Stats().Errors
			}
			injected = t.score(sc.name, "injected", "%.0f", float64(n))
		}
		var conf eval.Confusion
		for key := range seen {
			if reference[key] {
				conf.TP++
			} else {
				conf.FP++
			}
		}
		conf.FN = len(reference) - conf.TP
		degraded, lag := 0, rtec.Time(0)
		for _, rep := range reports {
			if len(rep.DegradedStreams) > 0 {
				degraded++
			}
			lag += rep.WatermarkLag
		}
		fmt.Fprintf(w, "%s\t%s/%d\t%d\t%s\t%s\t%d s\t%s\t%s\n", sc.name,
			t.score(sc.name, "reports", "%.0f", float64(len(reports))), boundaries, degraded,
			t.score(sc.name, "prec", "%.3f", conf.Precision()),
			t.score(sc.name, "recall", "%.3f", conf.Recall()),
			int64(lag)/int64(max(len(reports), 1)), injected,
			t.score(sc.name, "dead letters", "%.0f", float64(len(pipe.Topology.DeadLetters()))))
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(t.out, "\nreports: query boundaries answered / expected — liveness means no profile may lose one")
	fmt.Fprintln(t.out, "degraded: reports flagging at least one degraded input stream (schedule-dependent, not scored)")
	fmt.Fprintln(t.out, "prec/recall: recognised congested intersections vs the fault-free run, per boundary")
	fmt.Fprintln(t.out, "mean lag: average gap between the fastest stream's watermark and the fired boundary (schedule-dependent, not scored)")
	return nil
}

// positives collects what each boundary recognised — congested
// intersections, bus congestion areas, noisy buses — as "Q/kind/key"
// facts; the fault-free run's are the reference.
func positives(reports []*insight.Report) map[string]bool {
	out := make(map[string]bool)
	for _, rep := range reports {
		for kind, keys := range map[string][]string{"int": rep.CongestedIntersections, "area": rep.BusCongestionAreas, "bus": rep.NoisyBuses} {
			for _, key := range keys {
				out[fmt.Sprintf("%d/%s/%s", int64(rep.Q), kind, key)] = true
			}
		}
	}
	return out
}

func hours(sc scenario) float64 { return float64(sc.until-sc.from) / 3600 }
