package insight

// The durable pipeline: the Figure 1 data-flow graph with a write-ahead
// SDE log and checkpointed recovery underneath, so a killed monitoring
// process resumes from its last checkpoint and produces the same CE
// stream an uninterrupted run would — bit-identical, the property the
// crash-equivalence gate (TestCrashEquivalence) enforces.
//
// Topology. The five input streams feed their validators as usual, but
// the validators write to an "ingest" queue drained by a single
// wal-append process: every batch envelope is encoded (wal codec) and
// appended to the log *before* it is forwarded to the SDE queue, so
// consumption order equals append order and a consumed record is
// always durable (SyncAlways). The monitoring process carries the same
// rtecProcessor as the plain pipeline plus a checkpoint coordinator:
// at query-boundary granularity it persists what the log cannot
// recompute — clocks, inertia seeds, dedup sets, stream cursors, latest
// readings, the crowd verdicts still in the window and the EM estimator —
// keyed to two WAL offsets:
// the window offset, where the records holding the engines' working
// memory and the consumed-but-unadmitted rows begin, and the
// consumption offset, where the records the checkpoint has not consumed
// begin.
//
// Recovery. System.Pipeline first loads the newest checkpoint that
// passes its CRC (falling back across corrupt ones) and restores that
// state. It then rebuilds the working memory and the pending set: it
// re-reads the log from the window offset to the consumption offset,
// retaining every record, and admits at each boundary the checkpoint
// lists once the log is re-read to the offset that boundary fired at,
// running no query, and files that boundary's verdicts right after — the
// original admission order, so the stores come back row for row and what
// is still retained at the consumption offset is the old pending set.
// From there the log is replayed through the processor — re-consuming
// exactly the records consumed after the checkpoint plus any
// appended-but-unread tail — before the live topology is wired, whose
// sources skip the envelopes the cursors already account for.
// Pipeline.Run then delivers the reports the replay re-fired and writes
// the recovery checkpoint before the topology starts.
//
// Delivery. Every report is handed over as its boundary fires, before
// the safe point's checkpoint (rtecProcessor.deliverDue), so no
// checkpoint carries a report. A crash in between re-fires that boundary
// and the report comes again: delivery is at-least-once, and the newest
// report per query time is the recovered run's. A boundary that asked the
// crowd is checkpointed at the next safe point whatever CheckpointEvery
// says, since a replay could not reproduce its answers; one the replay
// re-fires asks the crowd again, and its round can reach the operator
// twice.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
	"github.com/insight-dublin/insight/traffic"
)

// DurableOptions configures the durable pipeline.
type DurableOptions struct {
	// Dir is the durability root: the WAL lives in Dir/wal, checkpoints
	// in Dir itself. Required.
	Dir string
	// CheckpointEvery writes a checkpoint after this many query
	// boundaries (default 1: every boundary).
	CheckpointEvery int
	// CheckpointFailpoint, consulted with each live checkpoint's
	// boundary cursor before the write, can end the run right after that
	// checkpoint is durable. Its one user is cmd/e2ebench's
	// insight.recover_ms kill; tests script faults through fs.
	CheckpointFailpoint func(q Time) CheckpointCrash
	// fs carries every WAL and checkpoint file call; nil means the real
	// filesystem.
	fs vfs.FS
}

// RecoveryInfo reports what recovery found and did.
type RecoveryInfo struct {
	// Resumed is true when a valid checkpoint was loaded.
	Resumed bool
	// CheckpointQ is the boundary cursor of the loaded checkpoint.
	CheckpointQ Time
	// CheckpointBytes is the size of the loaded checkpoint file.
	CheckpointBytes int64
	// WALFrontier is the log's append offset after recovery.
	WALFrontier int64
	// TornBytes counts torn-tail bytes discarded from the log.
	TornBytes int64
	// CorruptCheckpoints counts checkpoint files that failed their CRC
	// or decode and were skipped.
	CorruptCheckpoints int
	// RebuiltEvents counts the SDE rows re-read from the checkpoint's
	// window offset to its consumption offset to rebuild the engines'
	// working memory and the pending set.
	RebuiltEvents int
	// ReplayedRecords and ReplayedEvents count the WAL records (and the
	// SDE rows they carry) re-consumed from the checkpoint's consumption
	// offset.
	ReplayedRecords int
	ReplayedEvents  int
	// SkippedEnvelopes counts source envelopes the cursors already
	// accounted for, skipped instead of re-ingested.
	SkippedEnvelopes int
}

// durableState is the cross-goroutine slice of the durable runtime:
// the wal-append process records what it appends, and the monitoring
// process translates its consumption count into WAL offsets.
type durableState struct {
	mu sync.Mutex
	// recs holds, in log order, every record from offset front on that
	// recovery read or the wal-append process appended.
	front int64
	recs  []walRecord
	// The wal-append process's cost, records and frame bytes since the
	// last boundary's record took them (chargeLog).
	walCost              StageCost
	walRecords, walBytes int64
}

// walRecord is one logged record: its end offset and the latest
// occurrence time among its rows.
type walRecord struct {
	end    int64
	latest Time
}

func (st *durableState) noteAppend(end int64, latest Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.recs = append(st.recs, walRecord{end: end, latest: latest})
}

// chargeAppend adds one appended record's cost to the next record.
func (st *durableState) chargeAppend(cost StageCost, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.walCost.add(cost)
	st.walRecords++
	st.walBytes += bytes
}

// endOf returns the WAL offset every consumed record lies below:
// records are noted before they are consumed, so the i-th consumed
// record is recs[i-1] and consumed <= len(recs) always holds when the
// consumer calls this.
func (st *durableState) endOf(consumed int) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if consumed == 0 {
		return st.front
	}
	return st.recs[consumed-1].end
}

// window returns where the rebuild of a checkpoint over the first
// consumed records starts reading: the start of the oldest of them that
// holds a row occurring after horizon (older rows are gone from the
// stores and would be dropped again) or that starts at pending (the
// oldest record with rows still to admit, −1 for none) — the
// consumption offset if none does. The records before it are forgotten
// and their number returned: the next checkpoint's window starts no
// earlier, since its horizon and oldest pending record do not.
func (st *durableState) window(consumed int, horizon Time, pending int64) (int64, int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	i, at := 0, st.front
	for ; i < consumed && st.recs[i].latest <= horizon && at != pending; i++ {
		at = st.recs[i].end
	}
	st.recs, st.front = st.recs[i:], at
	return at, i
}

// checkCloseStamps refuses a logged move batch whose close/4 stamps the
// rules could not have been given by the input stage: a list that does
// not ascend or an index past the area index. The log is input from
// outside the program; a record written before the stage existed
// carries no stamp and replays through the rules' own join.
func (s *System) checkCloseStamps(b *streams.Batch) error {
	c := b.Col(traffic.CloseColumn)
	if b.Type != traffic.MoveType || c == nil {
		return nil
	}
	if c.Kind != streams.ColIntList {
		return fmt.Errorf("insight: move column %q is of kind %d, not an int list", traffic.CloseColumn, c.Kind)
	}
	areas := int32(len(s.areas.Intersections()))
	for i := range c.Ends {
		prev := int32(-1)
		for _, a := range c.List(i) {
			if a <= prev || a >= areas {
				return fmt.Errorf("insight: move row %d close stamp %v is not an ascending list of the %d area indexes", i, c.List(i), areas)
			}
			prev = a
		}
	}
	return nil
}

// latest returns the latest occurrence time among b's rows.
func latest(b *streams.Batch) Time {
	t := rtec.MinTime
	for _, bt := range b.Times {
		t = max(t, Time(bt))
	}
	return t
}

// walAppender is the single-writer append process: batch envelopes are
// logged before they are forwarded, EOF punctuation passes through
// unlogged (it is derived from the collection window, not input).
type walAppender struct {
	log   *wal.Log
	st    *durableState
	buf   []byte
	clock *stageClock // the append stage's, on this process's goroutine
}

// Process forwards the one per-item input the validators let through,
// EOF punctuation.
func (a *walAppender) Process(it streams.Item) (streams.Item, error) {
	return it, nil
}

// ProcessBatch logs the envelope, then forwards it. An append failure
// (a crash point above all) withholds the envelope from the SDE queue
// and releases it: a record is consumed only if it is durable. The
// record is encoded from the batch's rows, so the dictionary entries a
// recycled batch keeps from earlier use never reach the log: its bytes,
// and with them every WAL offset a checkpoint records, depend on the
// input alone.
func (a *walAppender) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	if a.clock == nil {
		a.clock = &stageClock{}
		a.clock.sample[0].Name = heapAllocsMetric
	}
	a.clock.start()
	a.buf = wal.EncodeBatch(a.buf[:0], b)
	start, end, err := a.log.Append(a.buf)
	if err != nil {
		b.Release()
		return nil, err
	}
	var cost StageCost
	a.clock.mark(&cost)
	a.st.chargeAppend(cost, end-start)
	a.st.noteAppend(end, latest(b))
	return []streams.Item{streams.BatchItem(b)}, nil
}

// durableRuntime is the checkpoint coordinator. All fields except st
// are owned by the goroutine driving the rtecProcessor (recovery
// replay first, then the monitoring process).
type durableRuntime struct {
	opts DurableOptions // fs resolved by vfs.Or
	run  runIdentity    // stamped into every checkpoint
	log  *wal.Log
	st   *durableState
	proc *rtecProcessor
	// consumed counts batch envelopes consumed per stream since the
	// window origin — the source skip cursor of the next epoch.
	consumed map[string]int64
	// consumedIdx counts the records of st.recs consumed; indexes it to
	// translate consumption into a WAL offset.
	consumedIdx int
	// fires lists the boundaries fired since the last checkpoint's
	// window offset, in firing order.
	fires []boundaryFire
	// live flips on when recovery replay is done: checkpoint writes only
	// make sense against the live log.
	live bool
	// boundaries counts query boundaries since the last checkpoint.
	boundaries int
	// info is what recovery found and did; the build adds the skipped
	// envelopes.
	info *RecoveryInfo
	// ckptBuf is the reused checkpoint file buffer: every checkpoint
	// encodes into it and is written from it.
	ckptBuf []byte
	// syncs is the log's fsync count the last boundary's record saw.
	syncs int64
}

// noteConsumed runs at the top of rtecProcessor.ProcessBatch: the
// envelope is consumed no matter what recognition does with it. It
// returns the WAL offset of the envelope's record.
func (rt *durableRuntime) noteConsumed(src string) int64 {
	rt.consumed[src]++
	rt.consumedIdx++
	return rt.st.endOf(rt.consumedIdx - 1)
}

// noteBoundary runs as each query boundary fires, inside fireDue —
// which may be mid-batch, where a checkpoint must NOT be taken (rows
// of the current batch past the firing row are in neither the engines
// nor the pending set yet). It only records; maybeCheckpoint persists at
// the next safe point — whatever CheckpointEvery says when the boundary
// asked the crowd, whose answers a replay could not reproduce.
func (rt *durableRuntime) noteBoundary(q Time, verdicts []crowdVerdict, asked bool) {
	rt.fires = append(rt.fires, boundaryFire{q: q, end: rt.st.endOf(rt.consumedIdx), verdicts: verdicts})
	rt.boundaries++
	if asked {
		rt.boundaries = max(rt.boundaries, rt.opts.CheckpointEvery)
	}
}

// chargeLog hands the log's work since the previous boundary to span:
// the wal-append process's records, bytes and cost, and the fsyncs.
func (rt *durableRuntime) chargeLog(span *Span) {
	st := rt.st
	st.mu.Lock()
	span.WAL, span.WALRecords, span.WALBytes = st.walCost, st.walRecords, st.walBytes
	st.walCost, st.walRecords, st.walBytes = StageCost{}, 0, 0
	st.mu.Unlock()
	syncs := rt.log.Syncs()
	span.WALSyncs, rt.syncs = syncs-rt.syncs, syncs
}

// maybeCheckpoint runs at the processor's safe points — the end of
// ProcessBatch, the end of Process, and Flush after the final fireDue —
// where every consumed record is fully accounted for in engine state
// plus the pending set. It persists a checkpoint once enough boundaries
// accumulated, then prunes checkpoints and the WAL prefix they no
// longer need.
func (rt *durableRuntime) maybeCheckpoint(p *rtecProcessor) error {
	if !rt.live || rt.boundaries < rt.opts.CheckpointEvery {
		return nil
	}
	return rt.writeCheckpoint(p, rt.opts.CheckpointFailpoint)
}

// recovered writes the recovery checkpoint after any non-empty replay,
// persisting the recovered state before the run goes live. This bounds
// replay work across repeated crashes — each recovery starts from the
// previous one's frontier instead of re-walking the whole log, so a
// crash loop still makes forward progress even when the replayed tail
// never crossed a query boundary. Pipeline.Run calls it once the
// re-fired reports are delivered. It goes through the same storage seam
// as every other write, so a fault scripted there can kill it too.
func (rt *durableRuntime) recovered(p *rtecProcessor) error {
	if rt.info.ReplayedRecords == 0 {
		return nil
	}
	return rt.writeCheckpoint(p, nil)
}

// writeCheckpoint builds and persists a checkpoint unconditionally,
// consulting crashAt (nil for the recovery checkpoint:
// CheckpointFailpoint kills only the live pipeline).
func (rt *durableRuntime) writeCheckpoint(p *rtecProcessor, crashAt func(Time) CheckpointCrash) error {
	rt.boundaries = 0
	p.rec.clock.start()
	defer p.rec.mark(&p.rec.next.Checkpoint)
	ck, err := rt.buildCheckpoint(p)
	if err != nil {
		return err
	}
	crash := CrashNone
	if crashAt != nil {
		crash = crashAt(ck.nextQ)
	}
	if rt.ckptBuf, err = ck.encode(rt.ckptBuf[:0]); err != nil {
		return err
	}
	if err := writeCheckpointFile(rt.opts.fs, rt.opts.Dir, ck.nextQ, rt.ckptBuf); err != nil {
		return err
	}
	p.rec.next.Checkpoints++
	p.rec.next.CheckpointBytes += int64(len(rt.ckptBuf))
	if crash == CrashAfterCheckpoint {
		return fmt.Errorf("insight: killed after checkpoint %s became durable: %w", checkpointName(ck.nextQ), wal.ErrCrashPoint)
	}
	off, err := gcCheckpoints(rt.opts.fs, rt.opts.Dir)
	if err != nil {
		return err
	}
	if off >= 0 {
		if err := rt.log.TruncateFront(off); err != nil {
			return err
		}
	}
	return nil
}

// buildCheckpoint captures the processor's recovery state.
func (rt *durableRuntime) buildCheckpoint(p *rtecProcessor) (*checkpoint, error) {
	s := p.system
	engines, err := s.engines.Snapshot()
	if err != nil {
		return nil, err
	}
	// The stores hold the admitted rows occurring after the last query
	// time's horizon; the pending set, every retained block's rest.
	pending := int64(-1)
	if len(p.adm.blocks) > 0 {
		pending = p.adm.blocks[0].at
	}
	horizon := p.nextQ - p.step - s.cfg.WorkingMemory
	window, forgotten := rt.st.window(rt.consumedIdx, horizon, pending)
	rt.consumedIdx -= forgotten
	// A fire leaves once its records and its verdicts, stamped q+1, are
	// both out of the window.
	kept := 0
	for kept < len(rt.fires) && rt.fires[kept].end <= window && rt.fires[kept].q+1 <= horizon {
		kept++
	}
	rt.fires = rt.fires[kept:]
	ck := &checkpoint{
		run:            rt.run,
		nextQ:          p.nextQ,
		windowOffset:   window,
		consumedOffset: rt.st.endOf(rt.consumedIdx),
		fires:          rt.fires,
		engines:        engines,
		estimator:      s.estimator,
	}
	ids := make([]string, 0, len(p.watermarks))
	for id := range p.watermarks {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		ck.cursors = append(ck.cursors, streamCursor{
			id:        id,
			consumed:  rt.consumed[id],
			watermark: p.watermarks[id],
		})
	}
	for sensor, tr := range s.lastTraffic {
		ck.traffic = append(ck.traffic, trafficSnap{sensor: sensor, flow: tr.flow, t: tr.t})
	}
	slices.SortFunc(ck.traffic, func(a, b trafficSnap) int { return strings.Compare(a.sensor, b.sensor) })
	for inter, cr := range s.lastCrowd {
		ck.crowd = append(ck.crowd, crowdSnap{inter: inter, congested: cr.congested, t: cr.t})
	}
	slices.SortFunc(ck.crowd, func(a, b crowdSnap) int { return strings.Compare(a.inter, b.inter) })
	return ck, nil
}

// BuildDurablePipeline is Pipeline with only Durable set. It is kept
// only because the frozen cmd/e2ebench calls it; ROADMAP item 2(b)
// deletes it.
func (s *System) BuildDurablePipeline(from, until Time, dur DurableOptions) (*Pipeline, *RecoveryInfo, error) {
	return s.Pipeline(from, until, PipelineOptions{Durable: &dur})
}

// resume recovers the durable pipeline for SDEs in [from, until) from
// whatever opt.Durable.Dir holds, before System.Pipeline wires the
// graph; it refuses any chaos fault, whose drops and duplicates would
// break the skip cursors' envelope counts, and a checkpoint written by
// another run (another window or another input), whose cursors count
// envelopes of another collection. A fresh directory starts
// clean, a crashed epoch's directory resumes
// from its newest valid checkpoint, its working memory rebuilt from the
// log's window and the log replayed from the checkpoint's consumption
// offset. The returned runtime owns the open log.
func (s *System) resume(from, until Time, opt PipelineOptions) (*durableRuntime, *RecoveryInfo, error) {
	if len(opt.Chaos) > 0 {
		return nil, nil, errors.New("insight: a durable pipeline takes no chaos faults: its recovery cursors count consumed envelopes")
	}
	dur := *opt.Durable
	if dur.Dir == "" {
		return nil, nil, fmt.Errorf("insight: DurableOptions.Dir is required")
	}
	if dur.CheckpointEvery <= 0 {
		dur.CheckpointEvery = 1
	}
	if err := os.MkdirAll(dur.Dir, 0o755); err != nil {
		return nil, nil, err
	}
	walDir := filepath.Join(dur.Dir, "wal")
	// Every append is fsynced: the crash-equivalence guarantee holds for
	// no weaker policy.
	dur.fs = vfs.Or(dur.fs)
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways, FS: dur.fs})
	if err != nil {
		return nil, nil, err
	}
	info := &RecoveryInfo{TornBytes: log.Torn()}
	fail := func(err error) (*durableRuntime, *RecoveryInfo, error) {
		return nil, info, errors.Join(err, log.Close())
	}
	ck, err := s.loadLatestCheckpoint(dur.fs, dur.Dir, info)
	if err != nil {
		return fail(err)
	}
	run := runIdentity{from: from, until: until, replay: replayDigest(opt.Replay)}
	if ck != nil && ck.run != run {
		return fail(fmt.Errorf("insight: checkpoint %s was written by the run over %s; this run is over %s",
			checkpointName(ck.nextQ), ck.run, run))
	}

	proc := newRTECProcessor(s, from, until)
	rt := &durableRuntime{
		opts:     dur,
		run:      run,
		log:      log,
		st:       &durableState{},
		proc:     proc,
		consumed: make(map[string]int64, len(pipelineStreamIDs)),
		info:     info,
	}
	proc.durable = rt

	var readFrom int64
	if ck != nil {
		if err := s.engines.Restore(ck.engines); err != nil {
			return fail(err)
		}
		s.estimator = ck.estimator
		proc.nextQ = ck.nextQ
		for _, cur := range ck.cursors {
			proc.watermarks[cur.id] = cur.watermark
			rt.consumed[cur.id] = cur.consumed
		}
		rt.fires = ck.fires
		readFrom = ck.windowOffset
	}

	// Every record read joins the runtime's record list: the next
	// checkpoint's window can start before the live epoch does.
	rt.st.front = readFrom
	reader, err := wal.OpenReader(walDir, readFrom)
	if err != nil {
		return fail(err)
	}
	next := func() (*streams.Batch, int64, error) {
		payload, start, end, err := reader.Next()
		if err != nil {
			return nil, 0, err
		}
		b, err := wal.DecodeBatch(payload)
		if err == nil {
			err = s.checkCloseStamps(b)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("insight: replay record at %d: %w", start, err)
		}
		rt.st.noteAppend(end, latest(b))
		return b, start, nil
	}

	if ck != nil {
		// Rebuild: re-read the window up to the consumption offset,
		// retaining every record, and admit at each recorded boundary once
		// the log is re-read to where it fired, then file its verdicts —
		// the original admission order, no query run. The restored engines
		// drop the rows and verdicts at or before their horizon; what stays
		// retained is the pending set.
		fires := ck.fires
		for {
			for end := rt.st.endOf(rt.consumedIdx); len(fires) > 0 && fires[0].end <= end; fires = fires[1:] {
				if _, err := proc.adm.admit(s, fires[0].q, proc.rec); err != nil {
					return fail(err)
				}
				if err := s.fileVerdicts(fires[0].q, fires[0].verdicts); err != nil {
					return fail(err)
				}
			}
			if rt.st.endOf(rt.consumedIdx) >= ck.consumedOffset {
				break
			}
			b, start, err := next()
			if errors.Is(err, io.EOF) {
				return fail(fmt.Errorf("insight: log ends before checkpoint %s's consumption offset %d", checkpointName(ck.nextQ), ck.consumedOffset))
			}
			if err != nil {
				return fail(err)
			}
			rt.consumedIdx++
			info.RebuiltEvents += b.Len()
			if b.Len() == 0 {
				b.Release()
			} else {
				proc.adm.retain(b, b.Len(), start)
			}
		}
		// The readings come back after the rebuild, whose admissions
		// noted older ones.
		s.lastTraffic = make(map[string]trafficReading, len(ck.traffic))
		for _, ts := range ck.traffic {
			s.lastTraffic[ts.sensor] = trafficReading{vertex: s.sensorVertex[ts.sensor], flow: ts.flow, t: ts.t}
		}
		s.lastCrowd = make(map[string]crowdReading, len(ck.crowd))
		for _, cs := range ck.crowd {
			s.lastCrowd[cs.inter] = crowdReading{vertex: s.interVertex[cs.inter], congested: cs.congested, t: cs.t}
		}
	}

	// Replay the rest of the log through the processor — the exact
	// consumption sequence of the crashed epoch's tail. Boundaries that
	// become due re-fire with the same admitted sets; their reports wait
	// in proc.due for Pipeline.Run. The live flag is still down, so
	// maybeCheckpoint stays quiet.
	for {
		b, _, err := next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fail(err)
		}
		info.ReplayedRecords++
		info.ReplayedEvents += b.Len()
		if _, err := proc.ProcessBatch(b); err != nil {
			return fail(err)
		}
	}
	info.TornBytes += reader.Torn()
	rt.live = true
	info.WALFrontier = log.Frontier()
	return rt, info, nil
}
