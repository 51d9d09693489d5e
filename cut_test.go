package insight

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// TestInputCutMatchesSerialFiling: on both tiers with N ∈ {2, 4, 8}
// engines, random cuts — replicated sensor blocks and routed move
// blocks, whole or a random subset of their rows, in a shuffled order —
// filed through the concurrent entrance leave every engine with the
// results that filing the runs one at a time, engine by engine, gives.
func TestInputCutMatchesSerialFiling(t *testing.T) {
	const from, step = Time(7 * 3600), Time(900)
	city := testCity(t)
	for _, sharded := range []bool{false, true} {
		for _, n := range []int{2, 4, 8} {
			name := fmt.Sprintf("partitioned/%d", n)
			if sharded {
				name = fmt.Sprintf("sharded/%d", n)
			}
			t.Run(name, func(t *testing.T) {
				mk := func() *System {
					cfg := Config{City: city, Seed: 7, WorkingMemory: 2 * step, Step: step, Partitions: n}
					if sharded {
						cfg.Shards = n
					}
					sys, err := New(cfg)
					if err != nil {
						t.Fatal(err)
					}
					return sys
				}
				concurrent, serial := mk(), mk()
				rng := rand.New(rand.NewSource(int64(n)))
				for q := from + step; q <= from+2*step; q += step {
					cut, batches := randomCut(t, concurrent, rng, q-step, q)
					if _, err := concurrent.engines.InputCut(cut); err != nil {
						t.Fatal(err)
					}
					if err := fileSerially(serial, cut); err != nil {
						t.Fatal(err)
					}
					for _, b := range batches {
						b.Release()
					}
					got, want := tierEngines(concurrent), tierEngines(serial)
					inserted := 0
					for i := range want {
						g, err := got[i].Query(q)
						if err != nil {
							t.Fatal(err)
						}
						w, err := want[i].Query(q)
						if err != nil {
							t.Fatal(err)
						}
						inserted += w.Stats.InsertedRows
						if !reflect.DeepEqual(g.Fluents, w.Fluents) || !reflect.DeepEqual(g.Derived, w.Derived) ||
							!reflect.DeepEqual(g.Fresh, w.Fresh) || g.Stats.InputEvents != w.Stats.InputEvents ||
							g.Stats.InsertedRows != w.Stats.InsertedRows {
							t.Fatalf("q=%d engine %d: the concurrent cut's result differs from serial filing", q, i)
						}
					}
					if inserted == 0 {
						t.Fatalf("q=%d: nothing filed", q)
					}
				}
			})
		}
	}
}

// randomCut collects the SDEs arriving in (lo, hi] as stamped transport
// batches of a random size and cuts them into runs: each batch whole
// or a random ascending subset of its rows, the runs shuffled. The
// caller releases the batches.
func randomCut(t *testing.T, sys *System, rng *rand.Rand, lo, hi Time) ([]rtec.BlockRun, []*streams.Batch) {
	t.Helper()
	var cut []rtec.BlockRun
	var batches []*streams.Batch
	for _, bs := range sys.city.CollectBatches(lo, hi, 16+rng.Intn(500), 0) {
		for _, b := range bs.Batches {
			if _, err := (sdeValidator{areas: sys.areas}).ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
			batches = append(batches, b)
			run := rtec.BlockRun{Block: dublin.Block(b)}
			if rng.Intn(2) == 0 {
				run.Rows = []int32{}
				for r := range b.Len() {
					if rng.Intn(3) > 0 {
						run.Rows = append(run.Rows, int32(r))
					}
				}
			}
			cut = append(cut, run)
		}
	}
	rng.Shuffle(len(cut), func(i, j int) { cut[i], cut[j] = cut[j], cut[i] })
	return cut, batches
}

// fileSerially is the reference filing: run by run, and within a run
// engine by engine, each engine given the run's rows it owns — on the
// partitioned tier by position, on the sharded tier a move by its bus
// and every other SDE everywhere.
func fileSerially(sys *System, cut []rtec.BlockRun) error {
	engines := tierEngines(sys)
	n := len(engines)
	for _, run := range cut {
		b := run.Block
		rows := run.Rows
		if rows == nil {
			for r := range b.Len() {
				rows = append(rows, int32(r))
			}
		}
		var owner func(int) int
		switch sys.engines.(type) {
		case partitionedTier:
			of := dublin.PartitionOfBlock(b)
			owner = func(r int) int { return of(r) % n }
		case *shardTier:
			if b.Type == traffic.MoveType {
				owner = func(r int) int { return rtec.RendezvousShard(b.Key(r), n) }
			}
		}
		for i, e := range engines {
			var mine []int32
			for _, r := range rows {
				if owner == nil || owner(int(r)) == i {
					mine = append(mine, r)
				}
			}
			if len(mine) == 0 {
				continue
			}
			if err := e.InputBlockRows(b, mine); err != nil {
				return err
			}
		}
	}
	return nil
}

// tierEngines lists a system's engines in engine order.
func tierEngines(sys *System) []*rtec.Engine {
	switch t := sys.engines.(type) {
	case partitionedTier:
		out := make([]*rtec.Engine, sys.cfg.Partitions)
		for i := range out {
			out[i] = t.Engine(i)
		}
		return out
	case *shardTier:
		return t.shards
	}
	return nil
}
