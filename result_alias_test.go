package insight

import (
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// TestResultOutlivesLaterQueries: an engine reuses its rules'
// transition buffers and its folds' scratch from query to query, so
// nothing a Result holds may point into them. On the column store with
// WM = 4·Step — the splice path, late arrivals shrinking its reusable
// region — the Result of every query renders the same after the next
// two queries as when it was returned, for the single-engine rule set
// and for the shard rule set whose busCongestion is partial.
func TestResultOutlivesLaterQueries(t *testing.T) {
	const from, until, step = Time(7 * 3600), Time(8*3600 + 1800), Time(450)
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 60, NumSensors: 60, Hotspots: 15, NoisyBusFraction: 0.25, MaxDelay: 600})
	if err != nil {
		t.Fatal(err)
	}
	tcfg := traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}
	sys, err := New(Config{City: city, Traffic: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	tcfg.Registry = sys.registry
	shardDefs, err := traffic.BuildShard(tcfg, traffic.ShardPlan{OwnsSensor: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	bstreams := city.CollectBatches(from, until, transportBatchRows, 0)
	defer releaseAll(bstreams)
	checkStamps(t, sys, bstreams)
	for _, rs := range []struct {
		name string
		defs *rtec.Definitions
	}{{"single", sys.defs}, {"shard", shardDefs}} {
		t.Run(rs.name, func(t *testing.T) {
			e, err := rtec.NewEngine(rs.defs, rtec.Options{WorkingMemory: 4 * step, Step: step})
			if err != nil {
				t.Fatal(err)
			}
			type held struct {
				res    *rtec.Result
				digest string
			}
			var kept []held // the last three queries' results
			next := make([][]int, len(bstreams))
			for i, bs := range bstreams {
				next[i] = make([]int, len(bs.Batches))
			}
			for q := from + step; q <= until; q += step {
				for si, bs := range bstreams {
					for bi, b := range bs.Batches {
						var rows []int32
						for n := &next[si][bi]; *n < len(b.Arrivals) && Time(b.Arrivals[*n]) <= q; *n++ {
							rows = append(rows, int32(*n))
						}
						if len(rows) > 0 {
							if err := e.InputBlockRows(dublin.Block(b), rows); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				res, err := e.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if len(kept) == 3 {
					kept = kept[1:]
				}
				kept = append(kept, held{res, resultDigest(res, nil)})
				for _, h := range kept {
					if got := resultDigest(h.res, nil); got != h.digest {
						t.Fatalf("the result of q=%d changed by q=%d:\n--- then ---\n%s\n--- now ---\n%s", h.res.Q, q, h.digest, got)
					}
				}
				if q == from+step {
					continue
				}
				for _, name := range []string{traffic.BusCongestion, traffic.Noisy} {
					if len(e.Transitions(name)) == 0 {
						t.Fatalf("q=%d: no %s transition points: the buffers are not exercised", q, name)
					}
				}
			}
		})
	}
}
