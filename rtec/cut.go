package rtec

import (
	"fmt"
	"sync"
	"time"
)

// BlockRun is one run of a cut: the rows of a block to file, in filing
// order (nil: every row, in row order).
type BlockRun struct {
	Block *Block
	Rows  []int32
}

// Fanout files cuts — the runs a query boundary admits, in consumption
// order — into a fixed set of engines. Every run is routed once,
// serially, into per-engine shares; then every engine files its own
// share, in the cut's order, on its own goroutine. Each engine sees
// exactly the rows, in exactly the order, that filing the runs one by
// one, engine by engine, would give it, so its store ends up the same.
//
// The engines copy what they file, so the cut's blocks may be recycled
// once InputCut returns. Not safe for concurrent use.
type Fanout struct {
	engines []*Engine
	shares  []share
	took    []time.Duration
	errs    []error
}

// share is one engine's part of a cut: which runs it files, and the
// rows routed to it.
type share struct {
	runs []shareRun
	rows []int32
}

// shareRun is one run of a share: the cut's run index and the range of
// the share's rows routed to the engine, or lo < 0 when the engine
// takes the run whole.
type shareRun struct {
	run    int
	lo, hi int
}

// NewFanout returns a Fanout over the given engines.
func NewFanout(engines []*Engine) *Fanout {
	n := len(engines)
	return &Fanout{
		engines: engines,
		shares:  make([]share, n),
		took:    make([]time.Duration, n),
		errs:    make([]error, n),
	}
}

// InputCut files a cut. route is asked once per run: nil hands the run
// whole to every engine; otherwise it returns the engine of each of the
// block's rows. A row routed outside the engines fails the whole cut
// before any engine files a row. It returns every engine's filing wall
// time, in engine order (the slice is f's, valid until the next call),
// and the first engine's error in engine order.
func (f *Fanout) InputCut(cut []BlockRun, route func(*Block) func(row int) int) ([]time.Duration, error) {
	for i := range f.shares {
		f.shares[i].runs = f.shares[i].runs[:0]
		f.shares[i].rows = f.shares[i].rows[:0]
	}
	for ri, run := range cut {
		owner := route(run.Block)
		if owner == nil {
			for i := range f.shares {
				f.shares[i].runs = append(f.shares[i].runs, shareRun{run: ri, lo: -1})
			}
			continue
		}
		for i := range f.shares {
			f.shares[i].runs = append(f.shares[i].runs, shareRun{run: ri, lo: len(f.shares[i].rows)})
		}
		if err := f.routeRun(run, owner); err != nil {
			return nil, err
		}
		for i := range f.shares {
			sh := &f.shares[i]
			sh.runs[len(sh.runs)-1].hi = len(sh.rows)
		}
	}

	var wg sync.WaitGroup
	for i, e := range f.engines {
		wg.Add(1)
		go func(i int, e *Engine) {
			defer wg.Done()
			begin := time.Now() //lint:allow nodeterminism wall-clock feeds only the filing times, never the recognition result
			f.errs[i] = f.shares[i].file(e, cut)
			f.took[i] = time.Since(begin)
		}(i, e)
	}
	wg.Wait()
	for _, err := range f.errs {
		if err != nil {
			return f.took, err
		}
	}
	return f.took, nil
}

// routeRun appends each row of the run to its owner's share.
func (f *Fanout) routeRun(run BlockRun, owner func(int) int) error {
	n := len(run.Rows)
	if run.Rows == nil {
		n = run.Block.Len()
	}
	for j := 0; j < n; j++ {
		r := int32(j)
		if run.Rows != nil {
			r = run.Rows[j]
		}
		i := owner(int(r))
		if i < 0 || i >= len(f.shares) {
			//lint:allow hotalloc cold error path: the view names the misrouted row
			return fmt.Errorf("rtec: event %v assigned to invalid partition %d", run.Block.Event(int(r)), i)
		}
		f.shares[i].rows = append(f.shares[i].rows, r)
	}
	return nil
}

// file files the share into e, run by run in cut order.
func (sh *share) file(e *Engine, cut []BlockRun) error {
	for _, sr := range sh.runs {
		rows := cut[sr.run].Rows
		if sr.lo >= 0 {
			if sr.lo == sr.hi {
				continue // no row of the run is e's
			}
			rows = sh.rows[sr.lo:sr.hi]
		}
		if err := e.InputBlockRows(cut[sr.run].Block, rows); err != nil {
			return err
		}
	}
	return nil
}
