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
	// run is the reusable row-index buffer of one block's admitted range.
	run []int32
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
// engines, block by block in consumption order, each block's share as
// one contiguous InputBlockRows range, and notes the sensor readings
// among them for the traffic model. A batch whose last row is admitted
// returns to the transport pool (the engines copy what they are given).
func (a *admission) admit(s *System, q Time) (int, error) {
	fed := 0
	kept := a.blocks[:0]
	for i, pb := range a.blocks {
		arrivals := pb.batch.Arrivals
		a.run = a.run[:0]
		for r := pb.next; r < pb.consumed && Time(arrivals[r]) <= q; r++ {
			a.run = append(a.run, int32(r))
		}
		if len(a.run) > 0 {
			if err := s.engines.InputBlockRows(pb.blk, a.run); err != nil {
				a.blocks = append(kept, a.blocks[i:]...)
				return fed, err
			}
			if pb.blk.Type == traffic.TrafficType {
				for _, r := range a.run {
					//lint:allow hotalloc view Event is a stack value; noteTraffic reads two cells, no map is built
					s.noteTraffic(pb.blk.Event(int(r)))
				}
			}
			fed += len(a.run)
			pb.next += len(a.run)
		}
		if pb.next == pb.batch.Len() {
			pb.batch.Release()
			continue
		}
		kept = append(kept, pb)
	}
	clear(a.blocks[len(kept):])
	a.blocks = kept
	return fed, nil
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
