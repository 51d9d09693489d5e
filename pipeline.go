package insight

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
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
// Reports flow to the returned collector sink, one item per query time
// under key "report" — or to the callback of System.Run and RunReplay,
// which build and run this same graph: it is the only drive loop.
type Pipeline struct {
	Topology *streams.Topology
	Reports  *streams.CollectorSink
	// Chaos holds the per-stream fault injectors of a chaos pipeline
	// (empty for BuildPipeline), keyed by stream id.
	Chaos map[string]*streams.ChaosSource
	// ChaosProcs holds the error-injecting input processors of a chaos
	// pipeline with InputErrProb > 0, keyed by stream id.
	ChaosProcs map[string]*streams.ChaosProcessor
	// proc is the monitoring processor, replay the five sources under
	// any pacing and fault injection: Run returns what they still hold.
	proc   *rtecProcessor
	replay []*streams.SliceSource
	// durable is the checkpoint coordinator of a durable pipeline
	// (nil for BuildPipeline/BuildChaosPipeline).
	durable *durableRuntime
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

// ChaosConfig configures deterministic fault injection for
// BuildChaosPipeline.
type ChaosConfig struct {
	// Streams maps input stream ids ("bus", "scats-central",
	// "scats-north", "scats-west", "scats-south") to the faults
	// injected into that stream.
	Streams map[string]streams.FaultSpec
	// InputErrProb injects processor errors into the per-stream input
	// validation processors with this probability, per batch envelope.
	// The input processes ("input-" + stream id) are then supervised
	// with SkipItem, so affected envelopes are dead-lettered (visible via
	// Topology.DeadLetters) instead of aborting the topology; call
	// Topology.Supervise on them before Run for another policy.
	InputErrProb float64
	// Seed drives the injected-error sampling; each stream's FaultSpec
	// carries its own seed.
	Seed int64
}

// BuildPipeline constructs the Figure 1 data-flow graph over the
// system for SDEs occurring in [from, until). Run it with Pipeline.Run;
// afterwards Pipeline.Reports holds one item per query time.
func (s *System) BuildPipeline(from, until Time) (*Pipeline, error) {
	return s.BuildChaosPipeline(from, until, ChaosConfig{})
}

// BuildChaosPipeline is BuildPipeline with deterministic fault
// injection on the input streams — the harness behind cmd/figures'
// scenario rows (a zero ChaosConfig is the plain pipeline).
// Pipeline.Chaos exposes the per-stream injectors for fault
// accounting.
func (s *System) BuildChaosPipeline(from, until Time, chaos ChaosConfig) (*Pipeline, error) {
	return s.buildPipeline(from, until, s.collect(from, until), chaos, nil, nil)
}

// collect cuts the window's SDEs into the five input streams' batches,
// spans capped at Step/2 (the pacer slack): at most one query boundary
// lands inside a batch and punctuation keeps its per-row granularity.
func (s *System) collect(from, until Time) []dublin.BatchedStream {
	return s.city.CollectBatches(from, until, transportBatchRows, s.cfg.Step/2)
}

// buildPipeline wires the graph over the five streams' arrival-ordered
// batches, which it owns from here on; onReport, when set, takes the
// reports in place of the operator sink (see rtecProcessor.onReport).
func (s *System) buildPipeline(from, until Time, batched []dublin.BatchedStream, chaos ChaosConfig, dur *durableRuntime, onReport func(*Report) error) (*Pipeline, error) {
	// End-of-stream punctuation: one trailing marker per stream lifts
	// that stream's watermark past the final boundary as soon as it
	// ends; the monitoring processor's Flush fires what is still due
	// when the merge queue is exhausted.
	top := streams.NewTopology()
	chaosSources := make(map[string]*streams.ChaosSource)
	// Replay pacing: align the five sources on a shared virtual clock
	// so no producer goroutine races a whole window ahead of the rest —
	// the arrival interleaving a live deployment would deliver, and the
	// ground the watermark staleness rule stands on. Chaos injection
	// wraps *outside* the pacing, so a stalled mediator keeps pulling
	// (and advancing the clock) while swallowing its items, exactly
	// like a dead mediator whose upstream keeps transmitting.
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
			dur.skipped += skip
			batches = batches[skip:]
		}
		items := make([]streams.Item, 0, len(batches)+1)
		for _, b := range batches {
			items = append(items, streams.BatchItem(b))
		}
		items = append(items, streams.Item{itemSource: id, itemEOF: true})
		slice := streams.NewSliceSource(items...)
		replay = append(replay, slice)
		var src streams.Source = slice
		if !s.cfg.UnpacedReplay {
			src = streams.NewPacedSource(src, pacer, id, int64(from), arrivalOf)
		}
		if spec, faulty := chaos.Streams[id]; faulty {
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
	reportQueue := "reports"
	if _, err := top.AddQueue(reportQueue, 64); err != nil {
		return nil, err
	}
	sink := streams.NewCollectorSink()
	var opSink streams.Sink = sink
	if dur != nil {
		// Reports acknowledge on arrival at the operator: the checkpoint
		// coordinator stops carrying them for re-emission.
		opSink = &ackingSink{inner: sink, st: dur.st}
	}
	if err := top.AddSink("operator", opSink); err != nil {
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

	// Input handling processes: one per stream, validating and
	// forwarding into the shared SDE queue. The validator is
	// batch-aware: batch envelopes are schema-checked and forwarded
	// whole instead of being expanded into per-row items.
	validate := sdeValidator{}
	chaosProcs := make(map[string]*streams.ChaosProcessor)
	for _, id := range pipelineStreamIDs {
		proc := streams.Processor(validate)
		if chaos.InputErrProb > 0 {
			cp := streams.NewChaosProcessor(validate, streams.FaultSpec{
				Seed:    chaos.Seed,
				ErrProb: chaos.InputErrProb,
			}.ForStream(id))
			chaosProcs[id] = cp
			proc = cp
		}
		if err := top.AddProcess("input-"+id, id, inputOut, proc); err != nil {
			return nil, err
		}
		if chaos.InputErrProb > 0 {
			// Injected input faults are contained by supervision: under
			// SkipItem they cost the affected envelope, never the
			// topology. A caller wanting another policy (e.g. Restart,
			// under which ChaosProcessor's per-attempt redraw makes the
			// fault transient) calls Topology.Supervise before Run.
			if err := top.Supervise("input-"+id, streams.SupervisionPolicy{Strategy: streams.SkipItem}); err != nil {
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
		// engines, cursors and pending rows and replayed the log tail
		// through it before the topology was wired.
		rtecProc = dur.proc
	}
	rtecProc.onReport = onReport
	if err := top.AddProcess("monitoring", sdeQueue, reportQueue, rtecProc); err != nil {
		return nil, err
	}

	// Output handling: forward finished reports to the operator sink.
	forward := streams.ProcessorFunc(func(it streams.Item) (streams.Item, error) { return it, nil })
	if err := top.AddProcess("operator-output", reportQueue, "operator", forward); err != nil {
		return nil, err
	}

	// Traffic modelling as a Streams service (Section 3: "the
	// procedure for making congestion estimates at locations with low
	// sensor coverage is wrapped as a Streams service").
	if err := top.RegisterService("trafficModel", TrafficModelService(s.FlowMap)); err != nil {
		return nil, err
	}

	return &Pipeline{Topology: top, Reports: sink, Chaos: chaosSources, ChaosProcs: chaosProcs, proc: rtecProc, replay: replay, durable: dur}, nil
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
	}
	for _, id := range pipelineStreamIDs {
		p.watermarks[id] = from
	}
	return p
}

// TrafficModelService is the service type under which the traffic
// modelling procedure is registered in the pipeline topology.
type TrafficModelService func(MapConfig) (*FlowEstimate, error)

// sdeValidator is the input-handling processor: it checks batch
// envelopes satisfy the row-length invariant and forwards them whole.
type sdeValidator struct{}

// Process forwards EOF punctuation, the only per-item traffic on an
// input stream: SDEs travel as column batches.
func (sdeValidator) Process(it streams.Item) (streams.Item, error) {
	if !it.Bool(itemEOF) {
		return nil, fmt.Errorf("insight: per-item SDE on stream %q: SDEs cross the pipeline as column batches", it.String(itemSource))
	}
	return it, nil
}

// ProcessBatch validates a batch envelope and forwards it whole. The
// monitoring process reads the last arrival as the batch's maximum and
// admission walks a cursor over the rows, so arrival order is part of
// the envelope contract (equal stamps — duplicates — are in order).
func (sdeValidator) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	if b.Len() > 0 && b.Arrivals == nil {
		return nil, fmt.Errorf("insight: SDE batch %q without arrival column", b.Type)
	}
	if !slices.IsSorted(b.Arrivals) {
		return nil, fmt.Errorf("insight: SDE batch %q from %q has decreasing arrivals", b.Type, b.Source)
	}
	return []streams.Item{streams.BatchItem(b)}, nil
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
	// onReport, when set, receives each report on the monitoring
	// goroutine once its boundary is complete and before any row is
	// admitted for the next: the system is as of the report's query time
	// and nothing else touches it meanwhile. Such a run emits and retains
	// no report; an error from it ends the run there.
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
	// due holds completed reports awaiting emission: a processor maps
	// one item to at most one item, so simultaneous boundaries drain
	// one per subsequent item; whatever is still due when the input
	// ends is released by Flush.
	due []streams.Item
	// durable, when non-nil, is the checkpoint coordinator of a durable
	// pipeline: consumption and boundary events are recorded as they
	// happen, and checkpoints are written at the processor's safe
	// points (never mid-batch, where rows past the firing one are in
	// neither the engines nor the pending set yet).
	durable *durableRuntime
}

// Process implements streams.Processor for the one per-item input,
// EOF punctuation: the ended stream's watermark lifts past the final
// boundary, and the report items of boundaries that become due are
// emitted, one per processed item.
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
	if len(p.due) == 0 {
		return nil, nil
	}
	rep := p.due[0]
	p.due = p.due[1:]
	return rep, nil
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
	if p.durable != nil {
		// The envelope is consumed whatever recognition does with it;
		// the cursor must say so before any boundary can fire.
		p.durable.noteConsumed(src)
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
		p.adm.retain(b, n)
		p.watermarks[src] = Time(b.Arrivals[n-1])
	} else {
		pb := p.adm.retain(b, 0)
		for i := 0; i < n; i++ {
			pb.consumed = i + 1
			p.watermarks[src] = Time(b.Arrivals[i])
			if err := p.fireDue(); err != nil {
				return nil, err
			}
		}
	}
	out := p.due
	p.due = nil
	if p.durable != nil {
		// Safe point: every row of every consumed record is now in the
		// engines or in the pending set. The reports in out are re-derivable
		// if this errors — the epoch dies with them unemitted, and
		// replay from the previous checkpoint re-fires their boundaries.
		if err := p.durable.maybeCheckpoint(p); err != nil {
			return out, err
		}
	}
	return out, nil
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
		if err := p.ctx.Err(); err != nil {
			return err
		}
		q := p.nextQ
		p.nextQ += p.step
		// Deliver exactly the SDEs that have arrived by q.
		fed, err := p.adm.admit(p.system, q)
		if err != nil {
			return err
		}
		rep, err := p.system.evaluate(p.ctx, q, fed)
		if err != nil {
			return err
		}
		rep.DegradedStreams = append([]string(nil), degraded...)
		rep.WatermarkLag = maxW - q
		if p.durable != nil {
			p.durable.noteBoundary(rep)
		}
		if p.onReport == nil {
			//lint:allow hotalloc one report envelope per query boundary, not per row
			p.due = append(p.due, streams.Item{itemReport: rep})
		} else if err := p.onReport(rep); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements streams.Flusher: when the merge queue is
// exhausted, every input stream is over, so all remaining query
// boundaries are due — lift the watermarks past the end and release
// the backlog of reports in one go.
func (p *rtecProcessor) Flush() ([]streams.Item, error) {
	for id := range p.watermarks {
		p.watermarks[id] = p.until + p.step
	}
	if err := p.fireDue(); err != nil {
		return nil, err
	}
	if p.durable != nil {
		// Checkpoint before the leftover rows are released: encoding
		// them needs their blocks still live.
		if err := p.durable.maybeCheckpoint(p); err != nil {
			return nil, err
		}
	}
	// Rows arriving after the final boundary are never admitted.
	p.adm.release()
	out := p.due
	p.due = nil
	return out, nil
}

// Run executes the pipeline and returns the reports in query-time
// order. Cancelling ctx stops it at the next item or boundary, crowd
// rounds included; however it ends, every transport buffer is returned.
func (p *Pipeline) Run(ctx context.Context) ([]*Report, error) {
	p.proc.ctx = ctx
	err := p.Topology.Run(ctx)
	p.release()
	if p.durable != nil {
		err = errors.Join(err, p.durable.log.Close())
	}
	if err != nil {
		return nil, err
	}
	items := p.Reports.Items()
	reports := make([]*Report, 0, len(items))
	for _, it := range items {
		rep, ok := it[itemReport].(*Report)
		if !ok {
			return nil, fmt.Errorf("insight: malformed report item %v", it)
		}
		reports = append(reports, rep)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].Q < reports[j].Q })
	return reports, nil
}

// release returns what the run did not get to — envelopes still in the
// replay sources and the SDE queues, blocks the monitoring process
// retained — to the pool: nothing after a clean run, all three after a
// cancelled or failed one. The topology's goroutines are gone by now.
func (p *Pipeline) release() {
	for _, src := range p.replay {
		for it, ok := src.Read(); ok; it, ok = src.Read() {
			streams.Discard(it)
		}
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
