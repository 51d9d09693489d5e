package insight

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// ceFingerprint renders every recognition-derived field of a report as
// one canonical string: if two runs produce the same fingerprints they
// recognised the same complex events. Transport-timing fields
// (WatermarkLag, DegradedStreams) are deliberately excluded — they
// describe when boundaries fired, not what was recognised, and depend
// on goroutine interleaving.
func ceFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%d window=[%d,%d) fed=%d input=%d\n",
		rep.Q, rep.Window.Start, rep.Window.End, rep.FedEvents, rep.Stats.InputEvents)
	fmt.Fprintf(&b, "congested=%s\n", join(rep.CongestedIntersections))
	fmt.Fprintf(&b, "busAreas=%s\n", join(rep.BusCongestionAreas))
	fmt.Fprintf(&b, "disagree=%s\n", join(rep.Disagreements))
	fmt.Fprintf(&b, "warnings=%s\n", join(rep.CongestionWarnings))
	fmt.Fprintf(&b, "unusual=%s\n", join(rep.UnusualCongestion))
	fmt.Fprintf(&b, "noisy=%s\n", join(rep.NoisyBuses))
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "alert %s|%s|%d|%s\n", a.Kind, a.Key, a.Time, a.Text)
	}
	for _, c := range rep.CrowdRounds {
		fmt.Fprintf(&b, "crowd %s|%d|%s\n", c.Intersection, c.Queried, c.Verdict.Best)
	}
	if rep.Result != nil {
		types := make([]string, 0, len(rep.Result.Derived))
		for typ := range rep.Result.Derived {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, ev := range rep.Result.Derived[typ] {
				fmt.Fprintf(&b, "derived %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
			}
		}
		for _, ev := range rep.Result.Fresh {
			fmt.Fprintf(&b, "fresh %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
		}
	}
	return b.String()
}

func compareReports(t *testing.T, label string, got, want []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range got {
		gf, wf := ceFingerprint(got[i]), ceFingerprint(want[i])
		if gf != wf {
			t.Errorf("%s: report %d differs:\n--- got ---\n%s--- want ---\n%s", label, i, gf, wf)
		}
	}
}

// rowEvent materializes row i of a transport batch as a map-backed
// rtec event — the per-event representation of the same SDE. A recycled
// batch's unfilled close column is left out: the reference's moves are
// unstamped, so the rules join them themselves.
func rowEvent(b *streams.Batch, i int) rtec.Event {
	attrs := make(map[string]any, len(b.Cols))
	for ci := range b.Cols {
		c := &b.Cols[ci]
		if c.Unfilled() {
			continue
		}
		attrs[c.Name] = c.Value(i)
	}
	return rtec.NewEvent(b.Type, Time(b.Times[i]), b.Keys[i], attrs)
}

// eventReference is the per-event statement of what the pipeline must
// recognise; the system itself moves SDEs only as column blocks. Every
// consumed row is materialized as a
// map-backed event, waits until the arrival watermark (the minimum over
// the five streams, less those trailing the most advanced one by more
// than the system's staleness bound, if it has one) passes a query
// boundary, and is then handed to the engines one event at a time
// (inputEvent) before the boundary is evaluated, crowd rounds included,
// one boundary at a time.
type eventReference struct {
	t          *testing.T
	sys        *System
	nextQ      Time
	until      Time
	watermarks map[string]Time
	pending    []dublin.SDE
	reports    []*Report
}

func newEventReference(t *testing.T, sys *System, from, until Time) *eventReference {
	r := &eventReference{t: t, sys: sys, nextQ: from + sys.cfg.Step, until: until, watermarks: make(map[string]Time)}
	for _, id := range pipelineStreamIDs {
		r.watermarks[id] = from
	}
	return r
}

// consume takes the rows of b one at a time, in order; the batch stays
// the caller's.
func (r *eventReference) consume(b *streams.Batch) {
	for i := 0; i < b.Len(); i++ {
		r.pending = append(r.pending, dublin.SDE{Event: rowEvent(b, i), Arrival: Time(b.Arrivals[i])})
		r.watermarks[b.Source] = Time(b.Arrivals[i])
		r.fireDue()
	}
}

// finish ends every stream and returns the reports of all boundaries.
func (r *eventReference) finish() []*Report {
	for id := range r.watermarks {
		r.watermarks[id] = r.until + r.sys.cfg.Step
	}
	r.fireDue()
	return r.reports
}

func (r *eventReference) fireDue() {
	r.t.Helper()
	maxW := r.watermarks[pipelineStreamIDs[0]]
	for _, w := range r.watermarks {
		maxW = max(maxW, w)
	}
	watermark := maxW
	for _, w := range r.watermarks {
		if stale := r.sys.cfg.WatermarkStaleness; stale > 0 && maxW-w > stale {
			continue // degraded: not part of the minimum
		}
		watermark = min(watermark, w)
	}
	for ; r.nextQ <= r.until && watermark > r.nextQ; r.nextQ += r.sys.cfg.Step {
		kept, fed := r.pending[:0], 0
		for _, sde := range r.pending {
			if sde.Arrival > r.nextQ {
				kept = append(kept, sde)
				continue
			}
			if err := inputEvent(r.sys, sde.Event); err != nil {
				r.t.Fatal(err)
			}
			if sde.Event.Type == traffic.TrafficType {
				r.sys.noteTraffic(sde.Event)
			}
			fed++
		}
		r.pending = kept
		rep, _, err := r.sys.evaluate(context.Background(), r.nextQ, fed, newSpanRecorder())
		if err != nil {
			r.t.Fatal(err)
		}
		r.reports = append(r.reports, rep)
	}
}

// inputEvent files one map-backed event through the engines' per-event
// entrance, routed as the tier routes a block row: on the four-region
// partitioning by position, on the sharded tier a move to its bus's
// shard and any other SDE to every shard.
func inputEvent(sys *System, ev rtec.Event) error {
	switch t := sys.engines.(type) {
	case partitionedTier:
		return t.Engine(dublin.PartitionOf(ev) % sys.cfg.Partitions).Input(ev)
	case *shardTier:
		if ev.Type == traffic.MoveType {
			return t.shards[rtec.RendezvousShard(ev.Key, len(t.shards))].Input(ev)
		}
		for _, e := range t.shards {
			if err := e.Input(ev); err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("no per-event entrance to a %T", sys.engines)
}

// referenceReports is what the per-event reference recognises over the
// given streams, consumed through the deterministic merge.
func referenceReports(t *testing.T, sys *System, from, until Time, srcs []streams.Source) []*Report {
	t.Helper()
	ref := newEventReference(t, sys, from, until)
	drainMerged(t, srcs, func(b *streams.Batch) {
		ref.consume(b)
		b.Release()
	})
	return ref.finish()
}

// batchSources wraps each collected stream as a slice source of batch
// envelopes, in pipelineStreamIDs order.
func batchSources(collected []dublin.BatchedStream) []streams.Source {
	srcs := make([]streams.Source, len(collected))
	for i, bs := range collected {
		items := make([]streams.Item, 0, len(bs.Batches))
		for _, b := range bs.Batches {
			items = append(items, streams.BatchItem(b))
		}
		srcs[i] = streams.NewSliceSource(items...)
	}
	return srcs
}

// earliestHead picks the batch with the smallest head arrival, ties by
// source order (-1 when every stream is exhausted): the deterministic
// merge.
func earliestHead(heads []*streams.Batch) int {
	pick := -1
	for i, b := range heads {
		if b != nil && (pick < 0 || b.Arrivals[0] < heads[pick].Arrivals[0]) {
			pick = i
		}
	}
	return pick
}

// drainMerged is drainPicked through the deterministic merge.
func drainMerged(t *testing.T, srcs []streams.Source, fn func(b *streams.Batch)) int {
	t.Helper()
	return drainPicked(t, srcs, earliestHead, fn)
}

// drainPicked reads the sources to exhaustion through one
// single-threaded interleaving — pick chooses among the streams' head
// batches (nil once a stream is exhausted) — handing each batch to fn,
// which owns it. It returns the number of rows delivered.
func drainPicked(t *testing.T, srcs []streams.Source, pick func(heads []*streams.Batch) int, fn func(b *streams.Batch)) int {
	t.Helper()
	heads := make([]*streams.Batch, len(srcs))
	advance := func(i int) {
		heads[i] = nil
		for heads[i] == nil {
			it, ok := srcs[i].Read()
			if !ok {
				return
			}
			b, isBatch := streams.ItemBatch(it)
			if !isBatch {
				t.Fatalf("source %d emitted a non-batch item %v", i, it)
			}
			if b.Len() == 0 {
				b.Release() // a batch the injector emptied
				continue
			}
			heads[i] = b
		}
	}
	for i := range srcs {
		advance(i)
	}
	rows := 0
	for {
		i := pick(heads)
		if i < 0 {
			return rows
		}
		b := heads[i]
		rows += b.Len()
		fn(b)
		advance(i)
	}
}

func chaosTestSystem(t *testing.T, city *dublin.City, participants []SimParticipant) *System {
	t.Helper()
	sys, err := New(Config{
		City:          city,
		Seed:          7,
		WorkingMemory: 1800,
		Step:          900,
		Participants:  participants,
		Traffic: traffic.Config{
			NoisyPolicy: traffic.Pessimistic,
			Adaptive:    true,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPipelineMatchesPerEventReference is the transport equivalence
// check: the same city through the batched pipeline and through the
// per-event reference must recognise bit-identical complex events —
// crowdsourcing feedback loop included — and the pipeline run must
// return every transport buffer to the pool.
func TestPipelineMatchesPerEventReference(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)

	before := streams.LiveBatches()
	pipe, _, err := chaosTestSystem(t, city, testParticipants(city, 8)).Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pipeReports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: pipeline run leaked transport buffers", live, before)
	}

	refReports := referenceReports(t, chaosTestSystem(t, city, testParticipants(city, 8)), from, until,
		batchSources(city.CollectBatches(from, until, 512, 450)))
	if len(refReports) == 0 {
		t.Fatal("reference run produced no reports")
	}
	rounds := 0
	for _, rep := range refReports {
		rounds += len(rep.CrowdRounds)
	}
	if rounds == 0 {
		t.Fatal("reference run triggered no crowd rounds: the feedback loop is not exercised")
	}
	compareReports(t, "pipeline vs per-event reference", pipeReports, refReports)
}

// TestEveryWayOutReturnsTheBuffers: an OnReport run, generated or
// replayed, owns the window's
// transport batches from collection on, and give every one back however
// the run ends — cleanly (rows arriving past the final boundary are
// never admitted, and released), on a callback error, on cancellation,
// with envelopes an input fault dead-lettered, on an input processor's
// error. The aborted runs leave envelopes in the replay sources and the
// SDE queue and blocks in the monitoring process's admission; the error
// comes back comparable and fn is not called again. The failed
// envelopes belong to the processor that failed on them.
func TestEveryWayOutReturnsTheBuffers(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	city := testCity(t)
	rec := city.Collect(from, until)
	errStop := errors.New("operator has seen enough")
	flaky := make(map[string]streams.FaultSpec)
	for _, id := range pipelineStreamIDs {
		flaky[id] = streams.FaultSpec{Seed: 5, ErrProb: 0.2}
	}
	exits := []struct {
		name string
		// leave is called with the second report and the run's cancel.
		leave func(cancel context.CancelFunc) error
		// chaos fails input envelopes, which the input processes
		// dead-letter, or end the run on under failFast.
		chaos    map[string]streams.FaultSpec
		failFast bool
		want     error
	}{
		{"clean", nil, nil, false, nil},
		{"callback error", func(context.CancelFunc) error { return errStop }, nil, false, errStop},
		{"cancellation", func(cancel context.CancelFunc) error { cancel(); return nil }, nil, false, context.Canceled},
		{"dead letters", nil, flaky, false, nil},
		{"processor error", nil, flaky, true, streams.ErrInjected},
	}
	for _, exit := range exits {
		for _, replay := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/replay=%v", exit.name, replay), func(t *testing.T) {
				sys := chaosTestSystem(t, city, testParticipants(city, 8))
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				calls, fed := 0, 0
				fn := func(r *Report) error {
					calls++
					fed += r.FedEvents
					if exit.leave != nil && calls == 2 {
						return exit.leave(cancel)
					}
					return nil
				}
				before := streams.LiveBatches()
				opt := PipelineOptions{OnReport: fn, Chaos: exit.chaos}
				if replay {
					opt.Replay = rec
				}
				pipe, _, err := sys.Pipeline(from, until, opt)
				if err != nil {
					t.Fatal(err)
				}
				if exit.failFast {
					for _, id := range pipelineStreamIDs {
						if err := pipe.Topology.Supervise("input-"+id, streams.FailFast); err != nil {
							t.Fatal(err)
						}
					}
				}
				_, err = pipe.Run(ctx)
				if !errors.Is(err, exit.want) {
					t.Errorf("run returned %v, want %v", err, exit.want)
				}
				if wantCalls := 2; exit.leave != nil && calls != wantCalls {
					t.Errorf("fn called %d times, want %d: recognition went on after the run was over", calls, wantCalls)
				}
				if exit.want == nil && (calls != int((until-from)/900) || fed == 0 || fed >= len(rec)) {
					t.Errorf("%d reports fed %d of %d collected rows: want one per boundary, and some rows arriving past the last", calls, fed, len(rec))
				}
				if dead := len(pipe.Topology.DeadLetters()); (exit.chaos != nil && !exit.failFast) != (dead > 0) {
					t.Errorf("%d dead letters", dead)
				}
				if live := streams.LiveBatches(); live != before {
					t.Errorf("live batches = %d, want %d", live, before)
				}
			})
		}
	}
}

// TestAbortedChaosRunReturnsTheBuffers: a chaos run cancelled after its
// first report returns every transport buffer, those its fault injectors
// still hold back included — rows a delay has not re-delivered yet, a
// stalled mediator's backlog.
func TestAbortedChaosRunReturnsTheBuffers(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	city := testCity(t)
	before := streams.LiveBatches()
	pipe, _, err := chaosTestSystem(t, city, nil).Pipeline(from, until, PipelineOptions{Chaos: map[string]streams.FaultSpec{
		"bus":         {Seed: 3, DelayProb: 0.5, DelayMax: 16},
		"scats-north": {Seed: 3, StallAfter: 2, StallFor: 1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pipe.proc.onReport = func(*Report) error {
		cancel()
		return nil
	}
	if _, err := pipe.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("run returned %v, want it cancelled", err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: the aborted chaos run kept buffers", live, before)
	}
}

// TestChaosDropDupMatchesPerEventReference runs the full chaos pipeline
// with row-level drops and duplicates on every input stream against the
// per-event reference fed from identically seeded injectors. A stream's
// fault sequence is a function of (seed, stream id, read order) alone,
// so both sides see the same faulted rows — and must report the same
// drop/dup counts and the same recognition output.
func TestChaosDropDupMatchesPerEventReference(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)

	chaos := map[string]streams.FaultSpec{}
	for i, id := range pipelineStreamIDs {
		chaos[id] = streams.FaultSpec{
			Seed:     100 + int64(i)*7,
			DropProb: 0.05,
			DupProb:  0.05,
		}
	}
	faults := func(srcs map[string]*streams.ChaosSource) (dropped, duplicated int) {
		for _, cs := range srcs {
			st := cs.Stats()
			dropped += st.Dropped
			duplicated += st.Duplicated
		}
		return dropped, duplicated
	}

	before := streams.LiveBatches()
	pipe, _, err := chaosTestSystem(t, city, nil).Pipeline(from, until, PipelineOptions{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	pipeReports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: faulted pipeline run leaked buffers", live, before)
	}
	pipeDrops, pipeDups := faults(pipe.Chaos)
	if pipeDrops == 0 || pipeDups == 0 {
		t.Fatalf("pipeline run injected %d drops, %d dups: fault injection inert", pipeDrops, pipeDups)
	}

	injectors := make(map[string]*streams.ChaosSource)
	srcs := batchSources(city.CollectBatches(from, until, 512, 450))
	for i, id := range pipelineStreamIDs {
		cs := streams.NewChaosSource(srcs[i], chaos[id].ForStream(id))
		injectors[id], srcs[i] = cs, cs
	}
	refReports := referenceReports(t, chaosTestSystem(t, city, nil), from, until, srcs)
	if refDrops, refDups := faults(injectors); refDrops != pipeDrops || refDups != pipeDups {
		t.Errorf("pipeline faults (%d drops, %d dups) != reference faults (%d drops, %d dups)",
			pipeDrops, pipeDups, refDrops, refDups)
	}
	compareReports(t, "chaos pipeline vs per-event reference", pipeReports, refReports)
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: reference injectors leaked buffers", live, before)
	}
}

// TestColumnarChaosDelayRoundTrip is the reordering half of the chaos
// contract: a seeded fault mix including out-of-order re-delivery over
// batched transport must yield CE output identical to feeding the very
// same faulted rows one map-backed event at a time. Both sides consume
// the same faulted batch sequence through a deterministic
// single-threaded merge, so the comparison is exact — and the pooled
// buffers must all be back after the run (no aliasing after release).
func TestColumnarChaosDelayRoundTrip(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)

	before := streams.LiveBatches()
	city := testCity(t)

	// One seeded injector per stream: drops, duplicates and held-back
	// rows re-delivered out of order.
	srcs := batchSources(city.CollectBatches(from, until, 512, 450))
	injectors := make([]*streams.ChaosSource, len(srcs))
	for i := range srcs {
		injectors[i] = streams.NewChaosSource(srcs[i], streams.FaultSpec{
			Seed:      500 + int64(i)*13,
			DropProb:  0.03,
			DupProb:   0.03,
			DelayProb: 0.08,
			DelayMax:  4,
		})
		srcs[i] = injectors[i]
	}

	procReports := processorVsReference(t, "delay chaos block admission vs per-event reference",
		func() *System { return chaosTestSystem(t, city, nil) }, from, until, srcs, earliestHead)
	if len(procReports) == 0 {
		t.Fatal("no reports produced")
	}
	delayed := 0
	for _, cs := range injectors {
		delayed += cs.Stats().Delayed
	}
	if delayed == 0 {
		t.Fatal("no rows were re-ordered: delay injection inert")
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: delayed buffers not returned to the pool", live, before)
	}
}

// processorVsReference drives a monitoring processor (block cursors)
// and the per-event reference, each over its own system from mk, through
// the same consumption sequence, and holds the processor's reports to
// the reference's, report for report. It returns the processor's.
func processorVsReference(t *testing.T, label string, mk func() *System, from, until Time, srcs []streams.Source, pick func([]*streams.Batch) int) []*Report {
	t.Helper()
	proc := newRTECProcessor(mk(), from, until)
	ref := newEventReference(t, mk(), from, until)
	var procReports []*Report
	proc.onReport = func(rep *Report) error {
		procReports = append(procReports, rep)
		return nil
	}
	rows := drainPicked(t, srcs, pick, func(b *streams.Batch) {
		// The reference first: it materializes the rows before the
		// processor consumes (and eventually releases) the batch.
		ref.consume(b)
		if _, err := proc.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
	})
	if rows == 0 {
		t.Fatalf("%s: no rows survived fault injection", label)
	}
	if _, err := proc.Flush(); err != nil {
		t.Fatal(err)
	}
	compareReports(t, label, procReports, ref.finish())
	return procReports
}
