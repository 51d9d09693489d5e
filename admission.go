package insight

import (
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// transportBatchRows is the row cap of the transport batches every
// producer cuts (generator, recorded-stream converter).
const transportBatchRows = 512

// admission is the one way an SDE reaches the engines: retained
// transport batches wait here, in consumption order, each with a cursor
// over its arrival-ordered rows, until a query time admits everything
// that has arrived by it: the monitoring processor retains batches as
// the merge queue delivers them and admits at each boundary it fires.
type admission struct {
	// blocks holds the batches with rows still to admit, in exact
	// consumption order across streams, so admission files events into
	// the engine stores in that order.
	blocks []*pendingBlock
	// cut is the reusable run list of one admission, one run per block
	// with rows to admit; rows holds the runs' row indexes.
	cut  []rtec.BlockRun
	rows []int32
}

// pendingBlock retains one transport batch until its last row has been
// admitted; the aliased rtec block is what admission feeds to the
// engines. Rows before next are in the engines; rows [next, consumed)
// wait for a query time at or past their arrival; rows from consumed on
// have not been consumed yet — the monitoring processor's per-row
// watermark walk is still ahead of them — and no query time admits them.
type pendingBlock struct {
	batch          *streams.Batch
	blk            *rtec.Block
	next, consumed int
	// at is the WAL offset of the record that carried the batch in a
	// durable pipeline: no checkpoint's window starts past it while the
	// block is retained.
	at int64
}

// retain takes ownership of a batch, rows in arrival order, whose first
// consumed rows are admissible; at is its WAL record's offset (0 outside
// durable pipelines).
func (a *admission) retain(b *streams.Batch, consumed int, at int64) *pendingBlock {
	pb := &pendingBlock{batch: b, blk: dublin.Block(b), consumed: consumed, at: at}
	a.blocks = append(a.blocks, pb)
	return pb
}

// admit delivers every consumed row with arrival <= q to the system's
// engines as one cut — each retained block's admissible rows one run,
// in consumption order — which every engine files concurrently; their
// filing times go on rec. Only after the engines are done does it
// advance the cursors, note the sensor readings among the rows for the
// traffic model and return each batch whose last row is admitted to the
// transport pool: the engines copy what they are given, but not before
// every one of them is done with it. If an engine refuses the cut,
// nothing advances and every batch stays retained for release.
func (a *admission) admit(s *System, q Time, rec *spanRecorder) (int, error) {
	need := 0
	for _, pb := range a.blocks {
		need += pb.consumed - pb.next
	}
	if cap(a.rows) < need {
		a.rows = make([]int32, 0, need) // the runs below slice it: it must not move
	}
	a.rows = a.rows[:0]
	a.cut = a.cut[:0]
	for _, pb := range a.blocks {
		arrivals := pb.batch.Arrivals
		lo := len(a.rows)
		for r := pb.next; r < pb.consumed && Time(arrivals[r]) <= q; r++ {
			a.rows = append(a.rows, int32(r))
		}
		if len(a.rows) > lo {
			a.cut = append(a.cut, rtec.BlockRun{Block: pb.blk, Rows: a.rows[lo:]})
		}
	}
	defer clear(a.cut) // the blocks go back to the pool
	if len(a.cut) > 0 {
		took, err := s.engines.InputCut(a.cut)
		if err != nil {
			return 0, err
		}
		rec.admitTimes(took)
	}

	runs := a.cut
	kept := a.blocks[:0]
	for _, pb := range a.blocks {
		if len(runs) > 0 && runs[0].Block == pb.blk {
			if pb.blk.Type == traffic.TrafficType {
				for _, r := range runs[0].Rows {
					//lint:allow hotalloc view Event is a stack value; noteTraffic reads two cells, no map is built
					s.noteTraffic(pb.blk.Event(int(r)))
				}
			}
			pb.next += len(runs[0].Rows)
			runs = runs[1:]
		}
		if pb.next == pb.batch.Len() {
			pb.batch.Release()
			continue
		}
		kept = append(kept, pb)
	}
	clear(a.blocks[len(kept):])
	a.blocks = kept
	return len(a.rows), nil
}

// release drops the rows no query time admitted (arrivals past the
// final boundary, or the leftovers of an abandoned run) and returns
// their transport buffers to the pool.
func (a *admission) release() {
	for _, pb := range a.blocks {
		pb.batch.Release()
	}
	a.blocks = nil
}
