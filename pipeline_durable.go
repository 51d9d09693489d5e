package insight

// The durable pipeline: the Figure 1 data-flow graph with a write-ahead
// SDE log and checkpointed recovery underneath, so a killed monitoring
// process resumes from its last checkpoint and produces the same CE
// stream an uninterrupted run would — bit-identical, the property the
// crash-equivalence gate (crashcampaign.go) enforces.
//
// Topology. The five input streams feed their validators as usual, but
// the validators write to an "ingest" queue drained by a single
// wal-append process: every batch envelope is encoded (wal codec) and
// appended to the log *before* it is forwarded to the SDE queue, so
// consumption order equals append order and a consumed record is
// always durable (SyncAlways). The monitoring process carries the same
// rtecProcessor as the plain pipeline plus a checkpoint coordinator:
// at query-boundary granularity it persists engine snapshots, stream
// cursors, consumed-but-unadmitted rows and fired-but-unacked reports,
// all keyed to a WAL offset.
//
// Recovery. BuildDurablePipeline loads the newest checkpoint that
// passes its CRC (falling back across corrupt ones), restores the
// engines and processor state, then replays the log from the
// checkpoint's offset through the processor — re-consuming exactly the
// records consumed after the checkpoint plus any appended-but-unread
// tail — before wiring the live topology, whose sources skip the
// envelopes the cursors already account for. Reports fired but not
// acknowledged by the operator sink are re-emitted (at-least-once;
// consumers dedupe by query time, keeping the newest).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
)

// DurableOptions configures the durable pipeline.
type DurableOptions struct {
	// Dir is the durability root: the WAL lives in Dir/wal, checkpoints
	// in Dir itself. Required.
	Dir string
	// CheckpointEvery writes a checkpoint after this many query
	// boundaries (default 1: every boundary).
	CheckpointEvery int
	// WALFailpoint arms crash injection on the append path (chaos
	// harness only).
	WALFailpoint wal.Failpoint
	// CheckpointFailpoint selects a crash mode per checkpoint write
	// (chaos harness only); consulted with the checkpoint's boundary
	// cursor.
	CheckpointFailpoint func(q Time) CheckpointCrash
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
	// ReplayedRecords and ReplayedEvents count the WAL records (and the
	// SDE rows they carry) re-consumed from the checkpoint's offset.
	ReplayedRecords int
	ReplayedEvents  int
	// ReemittedReports counts fired-but-unacked reports restored from
	// the checkpoint for re-emission.
	ReemittedReports int
	// SkippedEnvelopes counts source envelopes the cursors already
	// accounted for, skipped instead of re-ingested.
	SkippedEnvelopes int
}

// durableState is the cross-goroutine slice of the durable runtime:
// the wal-append process records append end offsets, the monitoring
// process translates its consumption count into a WAL offset, and the
// operator sink acknowledges emitted reports.
type durableState struct {
	mu sync.Mutex
	// base is the WAL frontier at epoch start; ends[i] is the end
	// offset of the i-th record appended this epoch.
	base int64
	ends []int64
	// ackQ is the newest query time the operator sink has received.
	ackQ Time
}

func (st *durableState) noteAppend(end int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ends = append(st.ends, end)
}

func (st *durableState) noteAck(q Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if q > st.ackQ {
		st.ackQ = q
	}
}

func (st *durableState) acked() Time {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.ackQ
}

// endOf returns the WAL offset every consumed record lies below:
// records append before they are forwarded, so the i-th consumed
// record of the epoch is the i-th appended one and consumed <=
// len(ends) always holds when the consumer calls this.
func (st *durableState) endOf(consumed int) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if consumed == 0 {
		return st.base
	}
	return st.ends[consumed-1]
}

// walAppender is the single-writer append process: batch envelopes are
// logged before they are forwarded, EOF punctuation passes through
// unlogged (it is derived from the collection window, not input).
type walAppender struct {
	log *wal.Log
	st  *durableState
	buf []byte
}

// Process forwards the one per-item input the validators let through,
// EOF punctuation.
func (a *walAppender) Process(it streams.Item) (streams.Item, error) {
	return it, nil
}

// ProcessBatch logs the envelope, then forwards it. An append failure
// (a crash point above all) withholds the envelope from the SDE queue:
// a record is consumed only if it is durable. The record is encoded
// from the batch's rows, so the dictionary entries a recycled batch
// keeps from earlier use never reach the log: its bytes, and with them
// every WAL offset a checkpoint records, depend on the input alone.
func (a *walAppender) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	a.buf = wal.EncodeBatchRows(a.buf[:0], b, 0, b.Len())
	_, end, err := a.log.Append(a.buf)
	if err != nil {
		return nil, err
	}
	a.st.noteAppend(end)
	return []streams.Item{streams.BatchItem(b)}, nil
}

// ackingSink wraps the operator collector: a report is acknowledged
// once it is in the collector, which lets the checkpoint coordinator
// stop carrying it for re-emission.
type ackingSink struct {
	inner *streams.CollectorSink
	st    *durableState
}

func (s *ackingSink) Write(it streams.Item) error {
	if err := s.inner.Write(it); err != nil {
		return err
	}
	if rep, ok := it[itemReport].(*Report); ok {
		s.st.noteAck(rep.Q)
	}
	return nil
}

// durableRuntime is the checkpoint coordinator. All fields except st
// are owned by the goroutine driving the rtecProcessor (recovery
// replay first, then the monitoring process).
type durableRuntime struct {
	opts DurableOptions
	dir  string
	log  *wal.Log
	st   *durableState
	proc *rtecProcessor
	// consumed counts batch envelopes consumed per stream since the
	// window origin — the source skip cursor of the next epoch.
	consumed map[string]int64
	// consumedIdx counts records consumed in the live epoch; indexes
	// st.ends to translate consumption into a WAL offset.
	consumedIdx int
	// live flips on when recovery replay is done: checkpoint writes and
	// the epoch record count only make sense against the live log.
	live bool
	// boundaries counts query boundaries since the last checkpoint.
	boundaries int
	// recent holds fired reports not yet known acknowledged, ascending
	// by query time; pruned against st.ackQ at checkpoint time.
	recent []*Report
	// skipped counts source envelopes skipped at build time.
	skipped int
	// ckptBuf is the reused checkpoint file buffer: every checkpoint
	// encodes into it and is written from it.
	ckptBuf []byte
}

// noteConsumed runs at the top of rtecProcessor.ProcessBatch: the
// envelope is consumed no matter what recognition does with it.
func (rt *durableRuntime) noteConsumed(src string) {
	rt.consumed[src]++
	if rt.live {
		rt.consumedIdx++
	}
}

// noteBoundary runs as each query boundary fires, inside fireDue —
// which may be mid-batch, where a checkpoint must NOT be taken (rows
// of the current batch past the firing row are in neither the engines
// nor the pending set yet). It only records; maybeCheckpoint persists at
// the next safe point.
func (rt *durableRuntime) noteBoundary(rep *Report) {
	rt.recent = append(rt.recent, rep)
	rt.boundaries++
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

// writeCheckpoint builds and persists a checkpoint unconditionally,
// routing it through crashAt (nil means no injected failure — the
// recovery-time checkpoint uses this so fault injection only targets
// checkpoints written by the live pipeline).
func (rt *durableRuntime) writeCheckpoint(p *rtecProcessor, crashAt func(Time) CheckpointCrash) error {
	rt.boundaries = 0
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
	if err := writeCheckpointFile(rt.dir, ck.nextQ, rt.ckptBuf, crash); err != nil {
		return err
	}
	off, err := gcCheckpoints(rt.dir)
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
	ck := &checkpoint{
		nextQ:     p.nextQ,
		walOffset: rt.st.endOf(rt.consumedIdx),
		engines:   engines,
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
	// Consumed-but-unadmitted rows, each retained block's [next, consumed)
	// encoded straight from its batch as a mini-batch, in pending order:
	// restoring them re-creates the pending set row for row.
	for _, pb := range p.adm.blocks {
		ck.pendingBatches = append(ck.pendingBatches, wal.EncodeBatchRows(nil, pb.batch, pb.next, pb.consumed))
	}
	for sensor, tr := range s.lastTraffic {
		ck.traffic = append(ck.traffic, trafficSnap{sensor: sensor, vertex: tr.vertex, flow: tr.flow, t: tr.t})
	}
	slices.SortFunc(ck.traffic, func(a, b trafficSnap) int { return strings.Compare(a.sensor, b.sensor) })
	for inter, cr := range s.lastCrowd {
		ck.crowd = append(ck.crowd, crowdSnap{inter: inter, vertex: cr.vertex, congested: cr.congested, t: cr.t})
	}
	slices.SortFunc(ck.crowd, func(a, b crowdSnap) int { return strings.Compare(a.inter, b.inter) })
	// Fired-but-unacked reports ride along for re-emission; reports the
	// sink has acknowledged are dropped from the carry set.
	ackQ := rt.st.acked()
	kept := rt.recent[:0]
	for _, rep := range rt.recent {
		if rep.Q <= ackQ {
			continue
		}
		kept = append(kept, rep)
		blob, err := json.Marshal(rep)
		if err != nil {
			return nil, err
		}
		ck.reports = append(ck.reports, blob)
	}
	rt.recent = kept
	return ck, nil
}

// BuildDurablePipeline constructs the durable pipeline for SDEs in
// [from, until), recovering from whatever dur.Dir holds: a fresh
// directory starts clean, a crashed epoch's directory resumes from its
// newest valid checkpoint with the log replayed from the checkpoint's
// offset. The returned RecoveryInfo describes what recovery did.
//
// Durable runs refuse a crowdsourcing-enabled system: participant
// queries are effectful, so replaying them would re-ask the crowd.
func (s *System) BuildDurablePipeline(from, until Time, dur DurableOptions) (*Pipeline, *RecoveryInfo, error) {
	if s.qeeEngine != nil {
		return nil, nil, fmt.Errorf("insight: durable pipeline cannot drive crowdsourcing (replay would re-query participants)")
	}
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
	log, err := wal.Open(walDir, wal.Options{Sync: wal.SyncAlways, Failpoint: dur.WALFailpoint})
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Pipeline, *RecoveryInfo, error) {
		return nil, nil, errors.Join(err, log.Close())
	}
	info := &RecoveryInfo{TornBytes: log.Torn()}
	ck, err := loadLatestCheckpoint(dur.Dir, info)
	if err != nil {
		return fail(err)
	}

	proc := newRTECProcessor(s, from, until)
	rt := &durableRuntime{
		opts:     dur,
		dir:      dur.Dir,
		log:      log,
		st:       &durableState{},
		proc:     proc,
		consumed: make(map[string]int64, len(pipelineStreamIDs)),
	}
	proc.durable = rt

	var replayFrom int64
	if ck != nil {
		if err := s.engines.Restore(ck.engines); err != nil {
			return fail(err)
		}
		s.lastTraffic = make(map[string]trafficReading, len(ck.traffic))
		for _, ts := range ck.traffic {
			s.lastTraffic[ts.sensor] = trafficReading{vertex: ts.vertex, flow: ts.flow, t: ts.t}
		}
		s.lastCrowd = make(map[string]crowdReading, len(ck.crowd))
		for _, cs := range ck.crowd {
			s.lastCrowd[cs.inter] = crowdReading{vertex: cs.vertex, congested: cs.congested, t: cs.t}
		}
		proc.nextQ = ck.nextQ
		for _, cur := range ck.cursors {
			proc.watermarks[cur.id] = cur.watermark
			rt.consumed[cur.id] = cur.consumed
		}
		for _, payload := range ck.pendingBatches {
			b, err := wal.DecodeBatch(payload)
			if err != nil {
				return fail(fmt.Errorf("insight: checkpoint pending batch: %w", err))
			}
			proc.adm.retain(b, b.Len())
		}
		for _, blob := range ck.reports {
			rep := &Report{}
			if err := json.Unmarshal(blob, rep); err != nil {
				return fail(fmt.Errorf("insight: checkpoint report: %w", err))
			}
			proc.due = append(proc.due, streams.Item{itemReport: rep})
			rt.recent = append(rt.recent, rep)
		}
		info.ReemittedReports = len(ck.reports)
		replayFrom = ck.walOffset
	}

	// Replay the log from the checkpoint's offset through the processor
	// — the exact consumption sequence of the crashed epoch's tail.
	// Boundaries that become due re-fire with the same admitted sets;
	// their reports stack behind the restored unacked ones. The live
	// flag is still down, so noteConsumed advances only the per-stream
	// cursors and maybeCheckpoint stays quiet.
	stash := proc.due
	proc.due = nil
	reader, err := wal.OpenReader(walDir, replayFrom)
	if err != nil {
		return fail(err)
	}
	for {
		payload, _, _, err := reader.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return fail(err)
		}
		b, err := wal.DecodeBatch(payload)
		if err != nil {
			return fail(fmt.Errorf("insight: replay record: %w", err))
		}
		info.ReplayedRecords++
		info.ReplayedEvents += b.Len()
		outs, err := proc.ProcessBatch(b)
		if err != nil {
			return fail(err)
		}
		stash = append(stash, outs...)
	}
	info.TornBytes += reader.Torn()
	proc.due = stash
	rt.live = true
	rt.st.base = log.Frontier()
	info.WALFrontier = rt.st.base

	// Recovery checkpoint: after any non-empty replay, persist the
	// recovered state before going live. This bounds replay work across
	// repeated crashes — each recovery starts from the previous one's
	// frontier instead of re-walking the whole log, so a crash loop
	// still makes forward progress even when the replayed tail never
	// crossed a query boundary. Injected checkpoint failures
	// deliberately don't apply here: they model crashes of the live
	// pipeline, and a build-time crash would mask the code path under
	// test.
	if info.ReplayedRecords > 0 {
		if err := rt.writeCheckpoint(proc, nil); err != nil {
			return fail(err)
		}
	}

	pipe, err := s.buildPipeline(from, until, s.collect(from, until), ChaosConfig{}, rt, nil)
	if err != nil {
		return fail(err)
	}
	info.SkippedEnvelopes = rt.skipped
	return pipe, info, nil
}
