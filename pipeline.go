package insight

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// Pipeline assembles the system as a Streams data-flow graph, the
// architecture of Section 3 of the paper:
//
//   - input handling processes: "all SDEs emitted by buses form one
//     stream, while the SDEs emitted by vehicle detectors of a SCATS
//     system are referenced by four streams, one per region of Dublin
//     city" — five sources feeding one SDE queue;
//   - a monitoring process whose processor embeds the RTEC engines,
//     triggered by watermark punctuation: a query time fires once every
//     input stream's arrival clock has passed it, which is exactly when
//     all SDEs arriving by that query time have been merged (delayed
//     SDEs are then handled by WM > step as usual). Crowdsourcing is
//     part of that boundary step: the verdicts on q's fresh
//     disagreements are fed back before q+Step is looked at (Figure 1's
//     feedback edge), however many boundaries are due at once;
//   - the traffic modelling procedure registered as a Streams service.
//
// Each report is handed over on the monitoring goroutine as its boundary
// fires: to PipelineOptions.OnReport, or else appended to Reports.
// System.Pipeline is the one entrance to this graph.
type Pipeline struct {
	Topology *streams.Topology
	// Reports collects the reports of a run without OnReport, one item
	// per query time under key "report", in query-time order.
	Reports *streams.CollectorSink
	// Chaos holds the per-stream fault injectors of a chaos pipeline
	// (empty without PipelineOptions.Chaos), keyed by stream id.
	Chaos map[string]*streams.ChaosSource
	// ChaosProcs holds the error-injecting input processors of the
	// streams whose fault spec sets ErrProb, keyed by stream id.
	ChaosProcs map[string]*streams.ChaosProcessor
	// proc is the monitoring processor, replay the five sources under
	// any pacing and fault injection: Run returns what they still hold.
	proc   *rtecProcessor
	replay []*streams.SliceSource
}

// pipelineStreamIDs are the paper's five input streams: one for all
// buses, one per SCATS region of Dublin city.
var pipelineStreamIDs = []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"}

// Item attribute keys used by the pipeline.
const (
	itemSource = "source" // originating stream id
	itemEOF    = "eof"    // end-of-stream punctuation
	itemReport = "report" // *Report payload
)

// PipelineOptions selects what System.Pipeline builds; the zero value
// is the plain run over the generator's SDEs, reports collected in
// Pipeline.Reports. Delivery is the same either way: each report leaves
// as its boundary fires, before the boundary's checkpoint in a durable
// run, so a crash in between re-fires that boundary and the report comes
// again — at least once, the newest per query time being the recovered
// run's.
type PipelineOptions struct {
	// Replay, when non-nil, replaces the generator's SDEs with a recorded
	// stream (e.g. dublin's CSV read-backs) in any order, admitted by
	// arrival; an SDE the columnar schema cannot carry is an error.
	Replay []dublin.SDE
	// Chaos injects deterministic faults into the input streams — the
	// harness behind cmd/figures' chaos rows. It maps a stream id
	// ("bus", "scats-central", "scats-north", "scats-west",
	// "scats-south") to that stream's faults, seeded per stream by
	// FaultSpec.ForStream: drop, duplicate, delay and stall on its
	// source, and ErrProb on its input process, which then dead-letters
	// the envelopes it fails (SkipItem; see Topology.DeadLetters).
	Chaos map[string]streams.FaultSpec
	// Durable logs every consumed envelope ahead of recognition,
	// checkpoints at boundaries and first recovers whatever Durable.Dir
	// holds (resume). It refuses any chaos fault: recovery skips the
	// envelopes its cursors count, which a dropping or duplicating
	// injector breaks.
	Durable *DurableOptions
	// OnReport takes the reports in place of the collector, on the
	// monitoring goroutine between boundaries (rtecProcessor.onReport).
	// An error from it, or the run context's, ends the run and comes
	// back wrapped. In a durable run it gets the reports recovery
	// re-fired first, at the start of Pipeline.Run.
	OnReport func(*Report) error
}

// Pipeline constructs the Figure 1 data-flow graph over the system for
// SDEs occurring in [from, until), as opt selects; run it with
// Pipeline.Run. The RecoveryInfo, nil unless opt.Durable is set, says
// what recovery did — or, when it failed once the log was open, how far
// it got.
func (s *System) Pipeline(from, until Time, opt PipelineOptions) (*Pipeline, *RecoveryInfo, error) {
	if opt.Durable == nil {
		pipe, err := s.buildPipeline(from, until, opt, nil)
		return pipe, nil, err
	}
	rt, info, err := s.resume(from, until, opt)
	if err != nil {
		return nil, info, err
	}
	pipe, err := s.buildPipeline(from, until, opt, rt)
	if err != nil {
		err = errors.Join(err, rt.log.Close())
	}
	return pipe, info, err
}

// BuildPipeline is Pipeline with no options. It is kept only because
// the frozen cmd/e2ebench calls it; ROADMAP item 2(b) deletes it.
func (s *System) BuildPipeline(from, until Time) (*Pipeline, error) {
	return first(s.Pipeline(from, until, PipelineOptions{}))
}

// first drops a build's RecoveryInfo.
func first(p *Pipeline, _ *RecoveryInfo, err error) (*Pipeline, error) { return p, err }

// collect cuts the window's SDEs into the five input streams' batches,
// spans capped at Step/2 (the pacer slack): at most one query boundary
// lands inside a batch and punctuation keeps its per-row granularity.
// dublin.BatchSDEs cuts a replay the same way.
func (s *System) collect(from, until Time) []dublin.BatchedStream {
	return s.city.CollectBatches(from, until, transportBatchRows, s.cfg.Step/2)
}

// buildPipeline wires the graph over the window's SDEs, generated or
// opt.Replay's, under dur when the pipeline is durable.
func (s *System) buildPipeline(from, until Time, opt PipelineOptions, dur *durableRuntime) (*Pipeline, error) {
	var batched []dublin.BatchedStream
	var err error
	if opt.Replay == nil {
		batched = s.collect(from, until)
	} else if batched, err = dublin.BatchSDEs(opt.Replay, transportBatchRows, s.cfg.Step/2); err != nil {
		return nil, err
	}
	// End-of-stream punctuation: one trailing marker per stream lifts
	// that stream's watermark past the final boundary as soon as it
	// ends; the monitoring processor's Flush fires what is still due
	// when the merge queue is exhausted.
	top := streams.NewTopology()
	chaosSources := make(map[string]*streams.ChaosSource)
	// Replay pacing, the pipeline's one alignment and always on: align
	// the five sources on a shared virtual clock so no producer
	// goroutine races a whole window ahead of the rest — the arrival
	// interleaving a live deployment would deliver, the ground the
	// watermark staleness rule stands on, and what keeps a durable run's
	// retained log flat in run length (DESIGN.md, "Replay alignment").
	// Chaos injection wraps *outside* the pacing, so a stalled mediator
	// keeps pulling (and advancing the clock) while swallowing its
	// items, exactly like a dead mediator whose upstream keeps
	// transmitting.
	pacer := streams.NewPacer(int64(s.cfg.Step) / 2)
	arrivalOf := func(it streams.Item) (int64, bool) {
		b, isBatch := streams.ItemBatch(it)
		if !isBatch || b.Len() == 0 || b.Arrivals == nil {
			return 0, false // EOF punctuation carries no arrival
		}
		// Pace on the batch's first arrival; the Step/2 span cap keeps
		// the whole batch within the pacer slack.
		return b.Arrivals[0], true
	}
	// The paper's five input streams, each arrival-ordered, as typed
	// batches — no per-event map is ever built on the ingest path.
	var replay []*streams.SliceSource
	for _, bs := range batched {
		id, batches := bs.ID, bs.Batches
		if dur != nil {
			// Recovery: the cursors already account for these envelopes —
			// the WAL replay re-consumed the ones past the checkpoint — so
			// the source must not re-ingest them. The collection is
			// deterministic, so skipping a count is skipping those exact
			// envelopes.
			skip := int(dur.consumed[id])
			if skip > len(batches) {
				return nil, fmt.Errorf("insight: recovery cursor for %q consumed %d envelopes but the collection replays only %d", id, skip, len(batches))
			}
			for _, b := range batches[:skip] {
				b.Release()
			}
			dur.info.SkippedEnvelopes += skip
			batches = batches[skip:]
		}
		items := make([]streams.Item, 0, len(batches)+1)
		for _, b := range batches {
			items = append(items, streams.BatchItem(b))
		}
		items = append(items, streams.Item{itemSource: id, itemEOF: true})
		slice := streams.NewSliceSource(items...)
		replay = append(replay, slice)
		var src streams.Source = streams.NewPacedSource(slice, pacer, id, int64(from), arrivalOf)
		if spec, faulty := opt.Chaos[id]; faulty {
			// Child seed per stream: the fault sequence each stream
			// experiences is a function of (spec seed, stream id) alone,
			// independent of how the scheduler interleaves the streams.
			cs := streams.NewChaosSource(src, spec.ForStream(id))
			chaosSources[id] = cs
			src = cs
		}
		if err := top.AddStream(id, src); err != nil {
			return nil, err
		}
	}

	sdeQueue := "sdes"
	if _, err := top.AddQueue(sdeQueue, 4096); err != nil {
		return nil, err
	}
	// Durable runs interpose the write-ahead log between the validators
	// and the SDE queue: one single-writer append process, so the log's
	// record order is exactly the monitoring process's consumption
	// order, and a consumed envelope is always durable.
	inputOut := sdeQueue
	if dur != nil {
		inputOut = "ingest"
		if _, err := top.AddQueue(inputOut, 4096); err != nil {
			return nil, err
		}
		if err := top.AddProcess("wal-append", inputOut, sdeQueue, &walAppender{log: dur.log, st: dur.st}); err != nil {
			return nil, err
		}
	}

	// Input handling processes: one per stream, validating, stamping
	// each move's close/4 join and forwarding into the shared SDE queue
	// (through the log in a durable run, which then carries the stamp).
	// The validator is batch-aware: batch envelopes are schema-checked
	// and forwarded whole instead of being expanded into per-row items.
	validate := sdeValidator{areas: s.areas}
	chaosProcs := make(map[string]*streams.ChaosProcessor)
	for _, id := range pipelineStreamIDs {
		proc := streams.Processor(validate)
		spec := opt.Chaos[id]
		if spec.ErrProb > 0 {
			cp := streams.NewChaosProcessor(validate, spec.ForStream(id))
			chaosProcs[id] = cp
			proc = cp
		}
		if err := top.AddProcess("input-"+id, id, inputOut, proc); err != nil {
			return nil, err
		}
		if spec.ErrProb > 0 {
			// An injected input fault costs the affected envelope, never
			// the topology.
			if err := top.Supervise("input-"+id, streams.SkipItem); err != nil {
				return nil, err
			}
		}
	}

	// The monitoring process: one processor embedding the RTEC engines
	// behind watermark punctuation; crowd rounds and their feedback are
	// part of its boundary step (fireDue).
	rtecProc := newRTECProcessor(s, from, until)
	if dur != nil {
		// The durable processor already exists: recovery restored its
		// engines and cursors, rebuilt their working memory and pending
		// rows from the log and replayed the log tail through it before
		// the topology was wired.
		rtecProc = dur.proc
	}
	// Output handling: the monitoring process hands each report over
	// itself, so it has no output queue.
	sink := streams.NewCollectorSink()
	rtecProc.onReport = opt.OnReport
	if rtecProc.onReport == nil {
		rtecProc.onReport = func(rep *Report) error { return sink.Write(streams.Item{itemReport: rep}) }
	}
	if err := top.AddProcess("monitoring", sdeQueue, "", rtecProc); err != nil {
		return nil, err
	}

	// Traffic modelling as a Streams service (Section 3: "the
	// procedure for making congestion estimates at locations with low
	// sensor coverage is wrapped as a Streams service").
	if err := top.RegisterService("trafficModel", TrafficModelService(s.FlowMap)); err != nil {
		return nil, err
	}

	return &Pipeline{Topology: top, Reports: sink, Chaos: chaosSources, ChaosProcs: chaosProcs, proc: rtecProc, replay: replay}, nil
}

// newRTECProcessor constructs the monitoring processor over the window
// [from, until). Every stream's watermark starts at the window origin:
// a stream that never reports holds the watermark at `from` (and, with
// a staleness bound, is eventually declared degraded) instead of being
// invisible to the minimum.
func newRTECProcessor(s *System, from, until Time) *rtecProcessor {
	p := &rtecProcessor{
		system:     s,
		step:       s.cfg.Step,
		ctx:        context.Background(),
		nextQ:      from + s.cfg.Step,
		until:      until,
		staleness:  s.cfg.WatermarkStaleness,
		watermarks: make(map[string]Time, len(pipelineStreamIDs)),
		rec:        newSpanRecorder(),
	}
	for _, id := range pipelineStreamIDs {
		p.watermarks[id] = from
	}
	return p
}

// TrafficModelService is the service type under which the traffic
// modelling procedure is registered in the pipeline topology.
type TrafficModelService func(MapConfig) (*FlowEstimate, error)

// sdeValidator is the input-handling processor: it stamps every move
// batch with its close/4 join, checks batch envelopes satisfy the
// batch invariants and forwards them whole.
type sdeValidator struct {
	areas *traffic.Registry // the rules' area index (traffic.AreaIndex)
}

// Process forwards EOF punctuation, the only per-item traffic on an
// input stream: SDEs travel as column batches.
func (sdeValidator) Process(it streams.Item) (streams.Item, error) {
	if !it.Bool(itemEOF) {
		return nil, fmt.Errorf("insight: per-item SDE on stream %q: SDEs cross the pipeline as column batches", it.String(itemSource))
	}
	return it, nil
}

// ProcessBatch stamps and validates a batch envelope and forwards it
// whole. The monitoring process reads the last arrival as the batch's
// maximum and admission walks a cursor over the rows, so arrival order
// is part of the envelope contract (equal stamps — duplicates — are in
// order). A refused envelope is released.
func (v sdeValidator) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	if err := v.check(b); err != nil {
		b.Release()
		return nil, err
	}
	return []streams.Item{streams.BatchItem(b)}, nil
}

// check stamps b and checks it against the envelope contract.
func (v sdeValidator) check(b *streams.Batch) error {
	if b.Type == traffic.MoveType && b.Len() > 0 {
		if err := v.stampClose(b); err != nil {
			return err
		}
	}
	if err := b.Check(); err != nil {
		return err
	}
	if b.Len() > 0 && b.Arrivals == nil {
		return fmt.Errorf("insight: SDE batch %q without arrival column", b.Type)
	}
	if !slices.IsSorted(b.Arrivals) {
		return fmt.Errorf("insight: SDE batch %q from %q has decreasing arrivals", b.Type, b.Source)
	}
	return nil
}

// stampClose is the pipeline's close/4 stage: it writes each move row's
// traffic.CloseColumn, the ascending indexes of the areas within the
// close threshold of its (lon, lat) — what the rules would otherwise
// join at every query over every window the row sits in. The stage owns
// the column: whatever the source put under that name is replaced, and
// a recycled batch's column is refilled in its own buffers, sized once
// per batch. A move batch without float lon and lat columns is refused:
// no spatial rule could read its rows.
func (v sdeValidator) stampClose(b *streams.Batch) error {
	n := b.Len()
	c := b.ListCol(traffic.CloseColumn) // before lon/lat: it may grow Cols
	lon, lat := b.Col("lon"), b.Col("lat")
	if lon == nil || lat == nil || lon.Kind != streams.ColFloat || lat.Kind != streams.ColFloat {
		return fmt.Errorf("insight: move batch from %q without float lon and lat columns", b.Source)
	}
	if len(lon.F) != n || len(lat.F) != n {
		return fmt.Errorf("insight: move batch from %q has %d lon and %d lat values for %d rows", b.Source, len(lon.F), len(lat.F), n)
	}
	if c.Kind != streams.ColIntList {
		*c = streams.Col{Name: traffic.CloseColumn, Kind: streams.ColIntList}
	}
	c.Ends = slices.Grow(c.Ends[:0], n)
	c.L = slices.Grow(c.L[:0], n) // most moves are close to one area or none
	for i := 0; i < n; i++ {
		c.L = v.areas.AppendClose(c.L, geo.LonLat(lon.F[i], lat.F[i]))
		c.Ends = append(c.Ends, uint32(len(c.L)))
	}
	return nil
}

// rtecProcessor embeds the partitioned RTEC engines in the streams
// framework. It forwards every SDE to the engines and fires query
// evaluations when the minimum arrival watermark across the *live*
// input streams passes a query boundary — at that point every SDE
// arriving by the boundary has been merged into the queue and
// consumed.
//
// Watermark liveness: with a positive staleness bound, a stream whose
// watermark trails the most advanced stream by more than the bound is
// declared degraded and excluded from the minimum, so a silent SCATS
// region cannot freeze city-wide recognition; the exclusion is
// surfaced on every report fired while it holds. A recovered stream
// rejoins the minimum, and its late SDEs re-enter recognition through
// the ordinary delayed-arrival path (they sit in pending until a
// boundary with arrival <= Q admits them, where the engines' dirty
// watermark revises the affected window) — recognition semantics stay
// exact, only boundary release timing adapts.
type rtecProcessor struct {
	system *System
	// ctx bounds the boundary step's crowd rounds: Pipeline.Run swaps the
	// run's context in before the topology starts.
	ctx context.Context
	// onReport (PipelineOptions.OnReport, or an append to
	// Pipeline.Reports) receives each report on the monitoring goroutine
	// once its boundary is complete and before any row is admitted for the
	// next: the system is as of the report's query time and nothing else
	// touches it meanwhile. An error from it ends the run there.
	onReport func(*Report) error
	step     Time
	nextQ    Time
	until    Time
	// staleness is the per-stream liveness bound; 0 disables
	// degradation (a silent stream then blocks query boundaries until
	// end of stream, the strict-watermark behaviour).
	staleness Time
	// watermarks holds the arrival watermark of each of the five input
	// streams (pipelineStreamIDs), nothing else.
	watermarks map[string]Time
	// degradedBuf is liveWatermark's reusable result buffer.
	degradedBuf []string
	// adm retains consumed batches until a query boundary admits their
	// rows: at query time Q exactly the SDEs with arrival <= Q may have
	// been delivered to the engines, as in a live deployment.
	adm admission
	// due holds the reports a durable recovery re-fired before onReport
	// was set; Pipeline.Run delivers them first. Live, a report is due
	// only until fireDue delivers it.
	due []*Report
	// durable, when non-nil, is the checkpoint coordinator of a durable
	// pipeline: consumption and boundary events are recorded as they
	// happen, and checkpoints are written at the processor's safe
	// points (never mid-batch, where rows past the firing one are in
	// neither the engines nor the pending set yet).
	durable *durableRuntime
	// rec fills each boundary's Report.Span.
	rec *spanRecorder
}

// Process implements streams.Processor for the one per-item input,
// EOF punctuation: the ended stream's watermark lifts past the final
// boundary and the boundaries that become due fire.
func (p *rtecProcessor) Process(it streams.Item) (streams.Item, error) {
	if !it.Bool(itemEOF) {
		return nil, fmt.Errorf("insight: monitoring process got a per-item SDE from %q: SDEs arrive as column batches", it.String(itemSource))
	}
	p.watermarks[it.String(itemSource)] = p.until + p.step // unblock the final boundaries
	if err := p.fireDue(); err != nil {
		return nil, err
	}
	if p.durable != nil {
		if err := p.durable.maybeCheckpoint(p); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// ProcessBatch implements streams.BatchProcessor: the SDE input of the
// monitoring process. Rows are consumed strictly in order — each row
// advances its stream's watermark and re-checks due boundaries before
// the next row joins the pending set — so the sequence of (admission,
// evaluation) steps, and with it the CE output, is that of delivering
// the same events one at a time. The batch is retained until boundary
// admission has drained it.
func (p *rtecProcessor) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	src := b.Source
	if _, known := p.watermarks[src]; !known {
		b.Release()
		return nil, fmt.Errorf("insight: SDE batch from unknown stream %q", src)
	}
	var at int64
	if p.durable != nil {
		// The envelope is consumed whatever recognition does with it;
		// the cursor must say so before any boundary can fire.
		at = p.durable.noteConsumed(src)
	}
	n := b.Len()
	if n == 0 {
		b.Release()
		return nil, nil
	}
	if p.batchCantFire(src, b.Arrivals) {
		// No query boundary can become due anywhere inside this batch,
		// so the per-row watermark walk is unobservable: every row is
		// consumed at once and the stream's watermark ends at the batch's
		// last arrival — exactly the state the per-row loop leaves behind.
		p.adm.retain(b, n, at)
		p.watermarks[src] = Time(b.Arrivals[n-1])
	} else {
		pb := p.adm.retain(b, 0, at)
		for i := 0; i < n; i++ {
			pb.consumed = i + 1
			p.watermarks[src] = Time(b.Arrivals[i])
			if err := p.fireDue(); err != nil {
				return nil, err
			}
		}
	}
	if p.durable != nil {
		// Safe point: every row of every consumed record is now in the
		// engines or in the pending set. If this errors, the epoch dies
		// and replay from the previous checkpoint re-fires the boundaries
		// since, whose reports then come again.
		if err := p.durable.maybeCheckpoint(p); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// liveWatermark is the one statement of the liveness rule over the
// streams' arrival watermarks, src's taken as val when src is non-empty:
// a stream trailing the most advanced one (maxW) by more than the
// staleness bound is degraded and excluded from the minimum (live); it
// rejoins as soon as its watermark catches back up. The most advanced
// stream is never excluded, so live is always defined. The degraded ids
// come in pipelineStreamIDs order, in a buffer the next call reuses.
func (p *rtecProcessor) liveWatermark(src string, val Time) (live, maxW Time, degraded []string) {
	at := func(id string) Time {
		if id == src {
			return val
		}
		return p.watermarks[id]
	}
	maxW = at(pipelineStreamIDs[0])
	for _, id := range pipelineStreamIDs[1:] {
		maxW = max(maxW, at(id))
	}
	live = maxW
	degraded = p.degradedBuf[:0]
	for _, id := range pipelineStreamIDs {
		w := at(id)
		if p.staleness > 0 && maxW-w > p.staleness {
			degraded = append(degraded, id)
			continue
		}
		live = min(live, w)
	}
	p.degradedBuf = degraded
	return live, maxW, degraded
}

// batchCantFire reports whether consuming the batch — src's arrival
// watermark stepping through arrivals — cannot release any query
// boundary, in which case ProcessBatch may skip the per-row fireDue
// walk. Within the batch only src's watermark moves. If it only rises, a
// rising src can leave the degraded set but not join it; while it is
// excluded the live minimum is the one the previous fireDue exhausted,
// and once it is included the other streams' exclusions only grow with
// the maximum — so the minimum the last row leaves behind bounds every
// interim one from above. A multi-row batch that starts behind its
// stream's watermark (a late re-delivery) is walked: the step backwards
// can degrade src itself and release a boundary the last row would not.
func (p *rtecProcessor) batchCantFire(src string, arrivals []int64) bool {
	if p.nextQ > p.until {
		return true // no boundaries left; Flush owns the leftovers
	}
	n := len(arrivals)
	if n > 1 && Time(arrivals[0]) < p.watermarks[src] {
		return false
	}
	live, _, _ := p.liveWatermark(src, Time(arrivals[n-1]))
	return live <= p.nextQ
}

// fireDue runs the boundary step for every query boundary the minimum
// arrival watermark across the live input streams has passed: at that
// point all SDEs arriving by those boundaries have been consumed from
// the merge queue (modulo degraded streams, whose lateness is flagged on
// the report instead of withholding it). One boundary at a time: when
// several are due at once, q's crowd verdicts precede q+Step's evaluation.
func (p *rtecProcessor) fireDue() error {
	watermark, maxW, degraded := p.liveWatermark("", 0)
	// Strictly greater: with equal arrival timestamps the merge queue
	// may still hold a sibling item stamped exactly at the boundary.
	for p.nextQ <= p.until && watermark > p.nextQ {
		rec := p.rec
		rec.open()
		if p.durable != nil {
			p.durable.chargeLog(&rec.span)
		}
		if err := p.ctx.Err(); err != nil {
			return err
		}
		q := p.nextQ
		p.nextQ += p.step
		rec.mark(&rec.span.Release)
		// Deliver exactly the SDEs that have arrived by q.
		fed, err := p.adm.admit(p.system, q, rec)
		if err != nil {
			return err
		}
		rec.mark(&rec.span.Admit)
		rep, verdicts, err := p.system.evaluate(p.ctx, q, fed, rec)
		if err != nil {
			return err
		}
		rep.DegradedStreams = append([]string(nil), degraded...)
		rep.WatermarkLag = maxW - q
		if p.durable != nil {
			p.durable.noteBoundary(q, verdicts, rec.span.CrowdRounds > 0)
		}
		rec.mark(&rec.span.Assemble)
		rep.Span = rec.span
		p.due = append(p.due, rep)
		if err := p.deliverDue(); err != nil {
			return err
		}
		rec.mark(&rec.next.Callback)
	}
	return nil
}

// deliverDue hands the reports waiting in due to onReport, oldest first:
// each as its boundary fires, and at the start of Pipeline.Run those a
// durable recovery re-fired. It is the pipeline's one exit. Recovery
// replays the log before onReport is set, so its re-fired reports wait.
func (p *rtecProcessor) deliverDue() error {
	if p.onReport == nil {
		return nil
	}
	for _, rep := range p.due {
		if err := p.onReport(rep); err != nil {
			return err // the run ends here
		}
	}
	clear(p.due)
	p.due = p.due[:0]
	return nil
}

// Flush implements streams.Flusher: when the merge queue is
// exhausted, every input stream is over, so all remaining query
// boundaries are due — lift the watermarks past the end and fire them
// in one go.
func (p *rtecProcessor) Flush() ([]streams.Item, error) {
	for id := range p.watermarks {
		p.watermarks[id] = p.until + p.step
	}
	if err := p.fireDue(); err != nil {
		return nil, err
	}
	if p.durable != nil {
		// Checkpoint before the leftover rows are released: the window
		// offset starts no later than the oldest of their records.
		if err := p.durable.maybeCheckpoint(p); err != nil {
			return nil, err
		}
	}
	// Rows arriving after the final boundary are never admitted.
	p.adm.release()
	return nil, nil
}

// Run executes the pipeline and returns the reports in query-time
// order (none with OnReport, which took them). A durable run first
// delivers the reports its recovery re-fired, then writes the recovery
// checkpoint (durableRuntime.recovered). Cancelling ctx stops it at the
// next item or boundary, crowd rounds included; however it ends, every
// transport buffer is returned.
func (p *Pipeline) Run(ctx context.Context) ([]*Report, error) {
	p.proc.ctx = ctx
	err := p.proc.deliverDue()
	if err == nil && p.proc.durable != nil {
		err = p.proc.durable.recovered(p.proc)
	}
	if err == nil {
		err = p.Topology.Run(ctx)
	}
	p.release()
	if p.proc.durable != nil {
		err = errors.Join(err, p.proc.durable.log.Close())
	}
	if err != nil {
		return nil, err
	}
	items := p.Reports.Items()
	reports := make([]*Report, len(items))
	for i, it := range items {
		reports[i] = it[itemReport].(*Report)
	}
	return reports, nil
}

// runToEnd runs a freshly built pipeline to its end, passing a build
// error through: runToEnd(ctx)(s.Pipeline(from, until, opt)).
func runToEnd(ctx context.Context) func(*Pipeline, *RecoveryInfo, error) error {
	return func(p *Pipeline, _ *RecoveryInfo, err error) error {
		if err == nil {
			_, err = p.Run(ctx)
		}
		return err
	}
}

// release returns what the run did not get to — envelopes still in the
// replay sources, held back by their fault injectors and in the SDE
// queues, blocks the monitoring process retained — to the pool: nothing
// after a clean run, any of them after a cancelled or failed one. The
// topology's goroutines are gone by now.
func (p *Pipeline) release() {
	for _, src := range p.replay {
		for it, ok := src.Read(); ok; it, ok = src.Read() {
			streams.Discard(it)
		}
	}
	for _, cs := range p.Chaos {
		cs.DiscardHeld()
	}
	for _, id := range []string{"ingest", "sdes"} {
		if q, ok := p.Topology.Queue(id); ok {
			for q.Len() > 0 {
				it, _ := q.Read()
				streams.Discard(it)
			}
		}
	}
	p.proc.adm.release()
}
