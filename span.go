package insight

import (
	"runtime/metrics"
	"time"

	"github.com/insight-dublin/insight/rtec"
)

// Span is the cost record of one query boundary, filled by the
// monitoring process as it runs the boundary step (rtecProcessor.fireDue)
// and carried on Report.Span. Like Report.Stats it describes how the
// boundary ran, not what it recognised, so Fingerprint leaves it out.
// It is fixed-size: filling it allocates nothing.
//
// Each stage has its wall time and the heap bytes the whole process
// allocated meanwhile (runtime/metrics "/gc/heap/allocs:bytes"): exact
// for the serial stages, summed over the engines for the parallel
// Admit and Query. A stage the tier or the run lacks — the folds
// without shards, crowd rounds without participants, the log and the
// checkpoint outside durable runs — reads 0.
type Span struct {
	// The boundary step, in order.
	Release StageCost // the watermark check that released the boundary
	// Admit is admission.admit: the rows that arrived by q into the
	// engines, every engine filing its share concurrently — the call's
	// wall time, and the heap bytes of every engine together. AdmitMax
	// and AdmitSum are the slowest engine's and the sum of the engines'
	// own filing times.
	Admit              StageCost
	AdmitMax, AdmitSum time.Duration
	// Query is the engines' Query, concurrently: the call's wall time,
	// and the heap bytes of every engine together. QueryMax and QuerySum
	// are the slowest engine's and the sum of the engines' own times.
	// Each engine's Query first indexes the rows filed since its last
	// one (the column store's deferred order merge), so that is charged
	// here, not to Admit.
	Query              StageCost
	QueryMax, QuerySum time.Duration
	FoldFresh          StageCost // the sharded tier's cross-shard Fresh dedup
	FoldBus            StageCost // the sharded tier's busCongestion fold
	Merge              StageCost // rtec.MergeResults
	Assemble           StageCost // the Report's CE sets and alerts
	// Crowd is the crowdsourcing rounds on q's fresh disagreements:
	// CrowdRounds of them, the longest taking CrowdMax.
	Crowd       StageCost
	CrowdRounds int
	CrowdMax    time.Duration

	// Stages that run after the record is handed out, or on another
	// goroutine: each record carries what they did since the previous
	// record was filled. Callback is the previous report's OnReport
	// callback. WAL is the wal-append process — encode, append, fsync —
	// whose heap bytes include what other goroutines allocated
	// meanwhile. Checkpoint is build, encode, write and fsync. What runs
	// after the last boundary is on no record: the last report's
	// callback, the WAL work after it and the run's final checkpoint.
	Callback   StageCost
	WAL        StageCost
	Checkpoint StageCost

	// Work counts: functions of the input and the configuration, not of
	// the machine — except the WAL's, which depend on how far ingest ran
	// ahead of the boundaries, and the checkpoint's, which depend on
	// when the safe points fell.
	RowsAdmitted    int   // SDE rows admitted at q
	RowsInserted    int   // rows filed into working memory, summed over the engines
	Joins           int64 // close/4 joins evaluated inside recognition (rtec.Stats.Joins)
	FreshEvents     int   // events the engines reported fresh, summed before the cross-shard dedup
	ReportedProbes  int   // Engine.Reported probes of the cross-shard Fresh dedup
	FoldPoints      int   // busCongestion transition points into the tier's fold
	WALRecords      int64
	WALBytes        int64 // frame bytes appended
	WALSyncs        int64
	Checkpoints     int
	CheckpointBytes int64
}

// StageCost is one stage's wall time and the heap bytes allocated
// process-wide while it ran.
type StageCost struct {
	Wall      time.Duration
	HeapBytes uint64
}

// add charges c's cost to s.
func (s *StageCost) add(c StageCost) {
	s.Wall += c.Wall
	s.HeapBytes += c.HeapBytes
}

// heapAllocsMetric is the process's cumulative heap allocation in bytes.
const heapAllocsMetric = "/gc/heap/allocs:bytes"

// stageClock times consecutive stages: each mark charges the stage that
// just ended with the wall time and heap bytes since the previous mark.
// Its sample is allocated once, so marking allocates nothing. A clock
// belongs to one goroutine; set sample[0].Name to heapAllocsMetric
// before the first start.
type stageClock struct {
	sample [1]metrics.Sample
	t      time.Time
	heap   uint64
}

// start begins the first stage.
func (c *stageClock) start() {
	c.t, c.heap = c.now()
}

// mark ends the running stage, adds its cost to dst and begins the
// next.
func (c *stageClock) mark(dst *StageCost) {
	t, heap := c.now()
	dst.Wall += t.Sub(c.t)
	dst.HeapBytes += heap - c.heap
	c.t, c.heap = t, heap
}

func (c *stageClock) now() (time.Time, uint64) {
	metrics.Read(c.sample[:])
	return time.Now(), c.sample[0].Value.Uint64() //lint:allow nodeterminism wall-clock feeds only Report.Span, never the recognition result
}

// spanRecorder fills the Span of the boundary being run and collects,
// for the next one, what the stages outside the boundary step cost. It
// belongs to the monitoring process: its goroutine, and before that the
// recovery that drives the same processor.
type spanRecorder struct {
	clock stageClock
	span  Span // the boundary being filled
	next  Span // stages run since span was handed out
}

func newSpanRecorder() *spanRecorder {
	r := &spanRecorder{}
	r.clock.sample[0].Name = heapAllocsMetric
	return r
}

// open starts a boundary's record with what ran since the last one.
func (r *spanRecorder) open() {
	r.span, r.next = r.next, Span{}
	r.clock.start()
}

// mark ends the running stage, charging it to dst.
func (r *spanRecorder) mark(dst *StageCost) { r.clock.mark(dst) }

// admitTimes records the engines' own filing times.
func (r *spanRecorder) admitTimes(took []time.Duration) {
	for _, d := range took {
		r.span.AdmitSum += d
		r.span.AdmitMax = max(r.span.AdmitMax, d)
	}
}

// engineTimes records the engines' own Query times and Fresh counts.
func (r *spanRecorder) engineTimes(results []*rtec.Result) {
	for _, res := range results {
		r.span.QuerySum += res.Stats.Elapsed
		r.span.QueryMax = max(r.span.QueryMax, res.Stats.Elapsed)
		r.span.FreshEvents += len(res.Fresh)
	}
}
