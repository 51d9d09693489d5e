package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	insight "github.com/insight-dublin/insight"
	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
	"github.com/insight-dublin/insight/traffic"
)

// The traced rep. It first drives the workload through its real entry
// point with span recording on, then times calls into each layer's
// public functions on the same input — only the layers the workload's
// real path goes through; the metrics of the others stay 0. Everything
// is clocked from this file: no package outside cmd/e2ebench is edited.

// ruleNames are the traffic rules whose cost is reported by name; a
// rule outside the list is summed under traffic.rule_ms.other.
var ruleNames = []string{
	traffic.ScatsCongestion, traffic.ScatsIntCongestion, traffic.BusCongestion,
	traffic.Disagree, traffic.Agree, traffic.Noisy, traffic.NoisyScats,
	traffic.SourceDisagreement, traffic.DelayIncrease, traffic.DensityTrend, traffic.FlowTrend,
	traffic.CongestionInMake, traffic.UnusualCongestion,
}

// crowdProbeRounds is the fixed query batch crowd.round_us is timed on.
const crowdProbeRounds = 2000

// layerProbe carries what the probes of one traced rep share.
type layerProbe struct {
	ctx  context.Context
	tr   *tracer
	w    *workload
	seed int64
	tmp  string
	city *dublin.City
	real *run // the traced real run
	// metrics are the per-layer metrics; seconds is what each layer
	// accounts for on this workload's whole stream, the numerator of
	// trace.attributed_share.
	metrics map[string]float64
	seconds map[string]float64
}

func tracedRep(ctx context.Context, w *workload, seed int64, tmp string) (*repResult, error) {
	tr := newTracer()
	begin := time.Now()
	dur, err := w.fullDurability(tmp)
	if err != nil {
		return nil, err
	}
	p, err := prepare(w, seed, dur, tr)
	if err != nil {
		return nil, err
	}
	setup := time.Since(begin)
	r, err := p.drive(ctx, tr)
	if err != nil {
		return nil, err
	}
	res, err := r.result(setup)
	if err != nil {
		return nil, err
	}

	lp := &layerProbe{
		ctx: ctx, tr: tr, w: w, seed: seed, tmp: tmp, city: p.city, real: r,
		metrics: make(map[string]float64), seconds: make(map[string]float64),
	}
	sdes := float64(r.sdes())
	bounds := float64(len(r.reports))
	if w.operator {
		err = lp.operatorLayers(p.sdes, p.collect)
		lp.metrics["insight.step_nonrtec_ms_per_boundary"] = ms(r.wall-r.rtecElapsed()-sum(r.flowMaps)) / bounds
	} else {
		err = lp.pipelineLayers()
		lp.metrics["insight.pipeline_overhead_ns_per_sde"] = float64((r.wall - r.rtecElapsed()).Nanoseconds()) / sdes
	}
	if err != nil {
		return nil, err
	}
	res.Layers, res.LayerSeconds, res.Spans = lp.metrics, lp.seconds, tr.spans
	return res, checkSpans(tr.spans, len(r.reports))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sum(ds []time.Duration) time.Duration {
	var total time.Duration
	for _, d := range ds {
		total += d
	}
	return total
}

// pipelineLayers probes the layers a Pipeline run goes through:
// dublin, streams, rtec and traffic, plus streams/wal and the insight
// durability stages on the durable workload.
func (lp *layerProbe) pipelineLayers() error {
	w := lp.w
	var batched []dublin.BatchedStream
	d, _ := lp.tr.timed("dublin.collect", "dublin", 0, func() error {
		batched = lp.city.CollectBatches(w.from, w.until, 512, w.step/2)
		return nil
	})
	rows := 0
	var batches []*streams.Batch
	for _, bs := range batched {
		for _, b := range bs.Batches {
			rows += b.Len()
			batches = append(batches, b)
		}
	}
	if rows == 0 {
		return fmt.Errorf("workload %s generated no SDEs", w.name)
	}
	lp.metrics["dublin.collect_ns_per_sde"] = float64(d.Nanoseconds()) / float64(rows)

	if err := lp.transport(batched, len(batches), rows); err != nil {
		return fmt.Errorf("streams probe: %w", err)
	}
	if w.durable {
		if err := lp.walLayer(batches, rows); err != nil {
			return fmt.Errorf("wal probe: %w", err)
		}
		if err := lp.durabilityLadder(); err != nil {
			return fmt.Errorf("insight probe: %w", err)
		}
	}
	// Admission as the pipeline does it: at boundary q the engine gets
	// exactly the rows that arrived by q, batch by batch.
	inputs := make([]boundaryInput, w.boundaries())
	for _, b := range batches {
		blk := dublin.Block(b)
		perBoundary := make(map[int][]int32)
		for i, arrival := range b.Arrivals {
			if k := boundaryOf(w, insight.Time(arrival)); k < len(inputs) {
				perBoundary[k] = append(perBoundary[k], int32(i))
			}
		}
		for k, rs := range perBoundary {
			inputs[k].blocks = append(inputs[k].blocks, admission{blk: blk, rows: rs})
			inputs[k].n += len(rs)
		}
	}
	if err := lp.recognition(inputs, rtec.StoreColumn, "rtec.ingest_ns_per_sde"); err != nil {
		return fmt.Errorf("rtec probe: %w", err)
	}
	for _, b := range batches {
		b.Release()
	}
	return nil
}

// operatorLayers probes the layers System.RunReplay + FlowMap go
// through: dublin, rtec (row store, per-event Input), traffic, crowd
// and gp.
func (lp *layerProbe) operatorLayers(sdes []dublin.SDE, collect time.Duration) error {
	w := lp.w
	if len(sdes) == 0 {
		return fmt.Errorf("workload %s generated no SDEs", w.name)
	}
	lp.metrics["dublin.collect_ns_per_sde"] = float64(collect.Nanoseconds()) / float64(len(sdes))

	inputs := make([]boundaryInput, w.boundaries())
	for _, sde := range sdes {
		if k := boundaryOf(w, sde.Arrival); k < len(inputs) {
			inputs[k].events = append(inputs[k].events, sde.Event)
			inputs[k].n++
		}
	}
	if err := lp.recognition(inputs, rtec.StoreRow, "rtec.input_event_ns_per_sde"); err != nil {
		return fmt.Errorf("rtec probe: %w", err)
	}

	rounds := 0
	for _, rep := range lp.real.reports {
		rounds += len(rep.CrowdRounds)
	}
	roundTime, err := lp.crowdRound()
	if err != nil {
		return fmt.Errorf("crowd probe: %w", err)
	}
	lp.metrics["crowd.rounds"] = float64(rounds)
	lp.metrics["crowd.rounds_per_boundary"] = float64(rounds) / float64(len(lp.real.reports))
	lp.metrics["crowd.round_us"] = float64(roundTime.Nanoseconds()) / 1e3
	lp.seconds["crowd"] = float64(rounds) * roundTime.Seconds()

	// The first FlowMap builds and caches the kernel; the rest fit and
	// predict on the cached one.
	maps := lp.real.flowMaps
	lp.metrics["gp.flowmap_first_ms"] = ms(maps[0])
	if len(maps) > 1 {
		lp.metrics["gp.flowmap_ms"] = ms(sum(maps[1:])) / float64(len(maps)-1)
	}
	lp.metrics["gp.observations"] = float64(lp.real.flowObs)
	lp.seconds["gp"] = sum(maps).Seconds()
	return nil
}

// boundaryOf is the index of the first query boundary at or after an
// arrival; past the last boundary the SDE is never admitted.
func boundaryOf(w *workload, arrival insight.Time) int {
	if arrival <= w.from {
		return 0
	}
	return int((arrival-w.from+w.step-1)/w.step - 1)
}

// passThrough forwards items and whole batch envelopes unchanged.
type passThrough struct{}

func (passThrough) Process(it streams.Item) (streams.Item, error) { return it, nil }

func (passThrough) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	return []streams.Item{streams.BatchItem(b)}, nil
}

// transport moves the workload's envelopes through a bench-built
// topology of the pipeline's shape with the work taken out: one source
// and one input process per stream, the shared SDE queue, one consumer.
func (lp *layerProbe) transport(batched []dublin.BatchedStream, envelopes, rows int) error {
	top := streams.NewTopology()
	// 4096 is the capacity of the real pipeline's "sdes" queue.
	if _, err := top.AddQueue("sdes", 4096); err != nil {
		return err
	}
	for _, bs := range batched {
		items := make([]streams.Item, len(bs.Batches))
		for i, b := range bs.Batches {
			items[i] = streams.BatchItem(b)
		}
		if err := top.AddStream(bs.ID, streams.NewSliceSource(items...)); err != nil {
			return err
		}
		if err := top.AddProcess("input-"+bs.ID, bs.ID, "sdes", passThrough{}); err != nil {
			return err
		}
	}
	sink := streams.NewCollectorSink()
	if err := top.AddSink("out", sink); err != nil {
		return err
	}
	if err := top.AddProcess("consume", "sdes", "out", passThrough{}); err != nil {
		return err
	}
	d, err := lp.tr.timed("streams.transport", "streams", 0, func() error { return top.Run(lp.ctx) })
	if err != nil {
		return err
	}
	if sink.Len() != envelopes {
		return fmt.Errorf("%d of %d envelopes arrived", sink.Len(), envelopes)
	}
	lp.metrics["streams.envelopes"] = float64(envelopes)
	lp.metrics["streams.rows_per_envelope"] = float64(rows) / float64(envelopes)
	lp.metrics["streams.transport_ns_per_sde"] = float64(d.Nanoseconds()) / float64(rows)
	lp.seconds["streams"] = d.Seconds()
	return nil
}

// walLayer times the log's codec, append, fsync and replay on the
// workload's envelopes.
func (lp *layerProbe) walLayer(batches []*streams.Batch, rows int) error {
	var buf []byte
	encode, _ := lp.tr.timed("wal.encode", "streams/wal", 0, func() error {
		for _, b := range batches {
			buf = wal.EncodeBatch(buf[:0], b)
		}
		return nil
	})
	payloads := make([][]byte, len(batches))
	for i, b := range batches {
		payloads[i] = wal.EncodeBatch(nil, b)
	}
	// appendAll writes every record to a fresh log under one fsync policy.
	appendAll := func(name string, policy wal.SyncPolicy) (dir string, d time.Duration, bytes int64, err error) {
		if dir, err = os.MkdirTemp(lp.tmp, "wal-"); err != nil {
			return "", 0, 0, err
		}
		log, err := wal.Open(dir, wal.Options{Sync: policy})
		if err != nil {
			return "", 0, 0, err
		}
		d, err = lp.tr.timed(name, "streams/wal", 0, func() error {
			for _, p := range payloads {
				if _, _, err := log.Append(p); err != nil {
					return err
				}
			}
			return nil
		})
		bytes = log.Frontier()
		return dir, d, bytes, errors.Join(err, log.Close())
	}
	_, never, _, err := appendAll("wal.append.syncnever", wal.SyncNever)
	if err != nil {
		return err
	}
	dir, always, bytes, err := appendAll("wal.append.syncalways", wal.SyncAlways)
	if err != nil {
		return err
	}
	replayed := 0
	replay, err := lp.tr.timed("wal.replay", "streams/wal", 0, func() error {
		reader, err := wal.OpenReader(dir, 0)
		if err != nil {
			return err
		}
		for {
			payload, _, _, err := reader.Next()
			if errors.Is(err, io.EOF) {
				return nil
			}
			if err != nil {
				return err
			}
			b, err := wal.DecodeBatch(payload)
			if err != nil {
				return err
			}
			replayed += b.Len()
			b.Release()
		}
	})
	if err != nil {
		return err
	}
	if replayed != rows {
		return fmt.Errorf("replay read %d of %d SDEs", replayed, rows)
	}
	records := float64(len(batches))
	lp.metrics["wal.encode_ns_per_sde"] = float64(encode.Nanoseconds()) / float64(rows)
	lp.metrics["wal.append_us_per_record"] = float64(never.Nanoseconds()) / 1e3 / records
	lp.metrics["wal.fsync_us_per_record"] = float64((always - never).Nanoseconds()) / 1e3 / records
	lp.metrics["wal.bytes_per_sde"] = float64(bytes) / float64(rows)
	lp.metrics["wal.replay_ns_per_sde"] = float64(replay.Nanoseconds()) / float64(rows)
	lp.seconds["streams/wal"] = (encode + always).Seconds()
	return nil
}

// durabilityLadder prices the durable pipeline's stages by ablation:
// the workload's input through the plain pipeline, then with the WAL
// and no checkpoint, each rung's wall subtracted from the one above;
// the top rung is the real run. It then kills a durable run after a
// checkpoint and times the rebuild from its directory — load the
// checkpoint, replay the log's tail — against a clean build.
func (lp *layerProbe) durabilityLadder() error {
	w := lp.w
	rung := func(name string, dur *insight.DurableOptions) (*run, error) {
		var r *run
		_, err := lp.tr.timed("insight.rung."+name, "insight", 0, func() error {
			p, err := prepare(w, lp.seed, dur, nil)
			if err != nil {
				return err
			}
			r, err = p.drive(lp.ctx, nil)
			return err
		})
		return r, err
	}
	plain, err := rung("plain", nil)
	if err != nil {
		return err
	}
	walDir, err := os.MkdirTemp(lp.tmp, "durable-")
	if err != nil {
		return err
	}
	// No rung without fsync: wal.fsync_us_per_record prices it directly.
	logged, err := rung("wal", &insight.DurableOptions{Dir: walDir, CheckpointEvery: 1 << 30})
	if err != nil {
		return err
	}
	bounds := float64(len(lp.real.reports))
	checkpoints := lp.real.wall - logged.wall
	lp.metrics["insight.wal_stage_ms_per_boundary"] = ms(logged.wall-plain.wall) / bounds
	lp.metrics["insight.checkpoint_ms_per_boundary"] = ms(checkpoints) / bounds
	lp.seconds["insight"] = checkpoints.Seconds()

	crashDir, err := os.MkdirTemp(lp.tmp, "durable-")
	if err != nil {
		return err
	}
	// The kill lands right after the second boundary's checkpoint is
	// durable, so what recovery finds does not depend on how far the
	// appender ran ahead of the monitoring process: by then it is done.
	_, err = rung("killed", &insight.DurableOptions{Dir: crashDir, CheckpointFailpoint: func(q insight.Time) insight.CheckpointCrash {
		if q > w.from+2*w.step {
			return insight.CrashAfterCheckpoint
		}
		return insight.CrashNone
	}})
	if !errors.Is(err, wal.ErrCrashPoint) {
		return fmt.Errorf("killed run: got %v, want the injected crash point", err)
	}
	cleanDir, err := os.MkdirTemp(lp.tmp, "durable-")
	if err != nil {
		return err
	}
	// A cancelled Run is the only way to close a built pipeline's log.
	cancelled, cancel := context.WithCancel(lp.ctx)
	cancel()
	rebuild := func(name, dir string) (time.Duration, error) {
		var p *prepared
		d, err := lp.tr.timed("insight.build."+name, "insight", 0, func() (err error) {
			p, err = prepare(w, lp.seed, &insight.DurableOptions{Dir: dir}, nil)
			return err
		})
		if err != nil {
			return 0, err
		}
		_, _ = p.pipe.Run(cancelled)
		return d, nil
	}
	recovered, err := rebuild("recovered", crashDir)
	if err != nil {
		return err
	}
	clean, err := rebuild("clean", cleanDir)
	if err != nil {
		return err
	}
	lp.metrics["insight.recover_ms"] = ms(recovered - clean)
	return nil
}

// admission is the rows of one transport batch admitted at a boundary.
type admission struct {
	blk  *rtec.Block
	rows []int32
}

// boundaryInput is what one query boundary admits: batch rows on the
// pipeline workloads, single events on the operator workload.
type boundaryInput struct {
	blocks []admission
	events []rtec.Event
	n      int
}

// recognition feeds one profiling engine the workload's stream boundary
// by boundary and queries it at each. Rules run on one goroutine so the
// per-rule times add up to at most the query's.
func (lp *layerProbe) recognition(inputs []boundaryInput, store rtec.StoreKind, ingestMetric string) error {
	w := lp.w
	registry, err := lp.city.Registry(150)
	if err != nil {
		return err
	}
	tcfg := trafficConfig
	tcfg.Registry = registry
	tcfg.CrowdWindow = w.step + 600 // as insight.New sets it
	defs, err := traffic.Build(tcfg)
	if err != nil {
		return err
	}
	opts := rtec.Options{WorkingMemory: w.wm, Step: w.step, Profile: true, RuleWorkers: 1, Store: store}
	eng, err := rtec.NewEngine(defs, opts)
	if err != nil {
		return err
	}
	named := make(map[string]bool, len(ruleNames))
	for _, name := range ruleNames {
		named[name] = true
	}

	var ingest, query, rules time.Duration
	var fed, windowSDEs int
	var allocBytes uint64
	var last *rtec.Result
	for k, in := range inputs {
		q := w.from + insight.Time(k+1)*w.step
		d, err := lp.tr.timed("rtec.ingest", "rtec", k+1, func() error {
			for _, a := range in.blocks {
				if err := eng.InputBlockRows(a.blk, a.rows); err != nil {
					return err
				}
			}
			for _, ev := range in.events {
				if err := eng.Input(ev); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		ingest += d
		fed += in.n

		start := time.Now()
		res, err := eng.Query(q)
		end := time.Now()
		if err != nil {
			return err
		}
		parent := lp.tr.add(-1, "rtec.query", "rtec", k+1, start, end)
		query += end.Sub(start)
		windowSDEs += res.Stats.InputEvents
		allocBytes += res.Stats.AllocBytes
		last = res
		// Rule times are the engine's own (Options.Profile); they are
		// laid end to end inside the query span the benchmark clocked.
		names := make([]string, 0, len(res.RuleCosts))
		for name := range res.RuleCosts {
			names = append(names, name)
		}
		sort.Strings(names)
		at := start
		for _, name := range names {
			cost := res.RuleCosts[name]
			metric := "traffic.rule_ms." + name
			if !named[name] {
				metric = "traffic.rule_ms.other"
			}
			lp.metrics[metric] += ms(cost) / float64(len(inputs))
			rules += cost
			if at.Add(cost).After(end) {
				cost = end.Sub(at)
			}
			lp.tr.add(parent, "traffic.rule."+name, "traffic", k+1, at, at.Add(cost))
			at = at.Add(cost)
		}
	}

	var snap *rtec.EngineSnapshot
	snapshot, err := lp.tr.timed("rtec.snapshot", "rtec", 0, func() (err error) {
		snap, err = eng.Snapshot()
		return err
	})
	if err != nil {
		return err
	}
	fresh, err := rtec.NewEngine(defs, opts)
	if err != nil {
		return err
	}
	restore, err := lp.tr.timed("rtec.restore", "rtec", 0, func() error { return fresh.Restore(snap) })
	if err != nil {
		return err
	}

	bounds := float64(len(inputs))
	lp.metrics[ingestMetric] = float64(ingest.Nanoseconds()) / float64(fed)
	lp.metrics["rtec.query_ms_per_boundary"] = ms(query) / bounds
	lp.metrics["rtec.query_ns_per_window_sde"] = float64(query.Nanoseconds()) / float64(windowSDEs)
	lp.metrics["rtec.resident_bytes_per_sde"] = float64(last.Stats.ResidentBytes) / float64(last.Stats.InputEvents)
	lp.metrics["rtec.query_alloc_bytes_per_boundary"] = float64(allocBytes) / bounds
	lp.metrics["rtec.snapshot_ms"] = ms(snapshot)
	lp.metrics["rtec.restore_ms"] = ms(restore)
	lp.metrics["traffic.rules_share_of_query"] = rules.Seconds() / query.Seconds()
	lp.seconds["rtec"] = (ingest + query - rules).Seconds()
	lp.seconds["traffic"] = rules.Seconds()
	return nil
}

// crowdRound times one crowdsourcing round — qee.Engine.Execute plus
// Estimator.Process — over a fixed batch of queries against the
// workload's participants, wired as insight.New wires them.
func (lp *layerProbe) crowdRound() (time.Duration, error) {
	engine := qee.NewEngine(qee.Options{Seed: lp.seed})
	roster := crowd.NewRoster()
	for i, p := range participants(lp.city, 200) {
		if err := roster.Register(crowd.Participant{ID: p.ID, Pos: p.Pos, Online: true, ComputeTime: 2 * time.Second}); err != nil {
			return 0, err
		}
		sim := crowd.NewSimulatedParticipant(p.ID, p.ErrorProb, lp.seed+int64(i)*97+13)
		if err := engine.Connect(qee.Device{
			Participant: crowd.Participant{ID: p.ID, Pos: p.Pos},
			Network:     p.Network,
			Respond: func(q qee.Query) (string, time.Duration) {
				return sim.Answer(q.Answers, traffic.Positive).Label, 2 * time.Second
			},
		}); err != nil {
			return 0, err
		}
	}
	estimator := crowd.NewEstimator(crowd.EstimatorOptions{})
	selection := crowd.SelectNearest(5, 0)
	inters := lp.city.Intersections()
	var total time.Duration
	for i := 0; i < crowdProbeRounds; i++ {
		inter := inters[i%len(inters)]
		query := qee.Query{
			ID:       fmt.Sprintf("%s@%d", inter.ID, i),
			Question: "Is there a traffic congestion at intersection " + inter.ID + "?",
			Answers:  []string{traffic.Positive, traffic.Negative},
			Pos:      inter.Pos,
		}
		d, err := lp.tr.timed("crowd.round", "crowd", 0, func() error {
			exec, err := engine.Execute(lp.ctx, query, selection(roster.Online(), inter.Pos))
			if err != nil {
				return err
			}
			_, err = estimator.Process(exec.Task([]float64{0.6, 0.4}))
			return err
		})
		if err != nil {
			return 0, err
		}
		total += d
	}
	return total / crowdProbeRounds, nil
}
