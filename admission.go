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

// admission is the one way an SDE reaches the engines: rows of retained
// transport batches wait here, in consumption order, until a query time
// admits everything that has arrived by it. The monitoring processor
// pushes rows as the merge queue delivers them and admits at each
// boundary it fires; the direct Step loop pushes the whole collection
// at Start and admits at each Step.
type admission struct {
	// rows references the not-yet-admitted rows in exact consumption
	// order across streams, so admission files events into the engine
	// stores in that order.
	rows []rowRef
	// run is the reusable row buffer admit flushes in consecutive
	// same-block runs.
	run []int32
}

// pendingBlock retains one consumed transport batch until every row
// has been admitted; the aliased rtec block is what admission feeds to
// the engines. The batch is released (and the alias dropped) when the
// last row is admitted, or by release for rows no query time admits.
type pendingBlock struct {
	batch   *streams.Batch
	blk     *rtec.Block
	pending int // rows not yet admitted
}

// rowRef addresses one not-yet-admitted row of a retained batch.
type rowRef struct {
	pb  *pendingBlock
	row int32
}

// retainBatch takes ownership of a non-empty batch; its rows join a
// pending set through admission.push.
func retainBatch(b *streams.Batch) *pendingBlock {
	return &pendingBlock{batch: b, blk: dublin.Block(b), pending: b.Len()}
}

// push appends rows [from, to) of a retained batch to the pending set.
func (a *admission) push(pb *pendingBlock, from, to int) {
	for i := from; i < to; i++ {
		a.rows = append(a.rows, rowRef{pb: pb, row: int32(i)})
	}
}

// admit delivers every pending row with arrival <= q to the system's
// engines, in pending order, flushing consecutive same-block runs as
// one InputBlockRows call, and notes the sensor readings among them
// for the traffic model. Batches whose last row is admitted return to
// the transport pool.
func (a *admission) admit(s *System, q Time) (int, error) {
	if len(a.rows) == 0 {
		return 0, nil
	}
	fed := 0
	kept := a.rows[:0]
	var runPB *pendingBlock
	var drained []*pendingBlock
	a.run = a.run[:0]
	flushRun := func() error {
		if runPB == nil || len(a.run) == 0 {
			return nil
		}
		err := s.engines.InputBlockRows(runPB.blk, a.run)
		a.run = a.run[:0]
		return err
	}
	for _, ref := range a.rows {
		if Time(ref.pb.batch.Arrivals[ref.row]) > q {
			kept = append(kept, ref)
			continue
		}
		if ref.pb != runPB {
			if err := flushRun(); err != nil {
				return fed, err
			}
			runPB = ref.pb
		}
		a.run = append(a.run, ref.row)
		if ref.pb.blk.Type == traffic.TrafficType {
			//lint:allow hotalloc view Event is a stack value; noteTraffic reads two cells, no map is built
			s.noteTraffic(ref.pb.blk.Event(int(ref.row)))
		}
		fed++
		if ref.pb.pending--; ref.pb.pending == 0 {
			drained = append(drained, ref.pb)
		}
	}
	if err := flushRun(); err != nil {
		return fed, err
	}
	a.rows = kept
	// Safe only now: the engines copied every admitted row above.
	for _, pb := range drained {
		pb.blk = nil
		pb.batch.Release()
	}
	return fed, nil
}

// release drops the rows no query time admitted (arrivals past the
// final boundary, or the leftovers of an abandoned run) and returns
// their transport buffers to the pool.
func (a *admission) release() {
	for _, ref := range a.rows {
		if ref.pb.blk != nil {
			ref.pb.blk = nil
			ref.pb.batch.Release()
		}
	}
	a.rows = nil
}
