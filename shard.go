package insight

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// engineTier abstracts the recognition tier behind System: the legacy
// fixed partitioning (*rtec.Partitioned, the paper's four-region
// split) and the N-way sharded tier (shardTier) expose the same
// surface to the admission/evaluate/checkpoint machinery. Every SDE
// arrives through InputCut: the input streams' rows a boundary admits,
// the crowd verdicts of the boundary step, the rebuild's admissions.
type engineTier interface {
	// InputCut files a cut's runs, in order, into the engines — each
	// engine its share, concurrently (rtec.Fanout) — and returns the
	// engines' own filing times.
	InputCut(cut []rtec.BlockRun) ([]time.Duration, error)
	// Query evaluates the engines at q, marking on rec the stages it
	// runs — the engines' Query and the tier's folds — and their counts.
	Query(q Time, rec *spanRecorder) ([]*rtec.Result, error)
	Snapshot() ([]*rtec.EngineSnapshot, error)
	Restore(snaps []*rtec.EngineSnapshot) error
}

// partitionedTier is the legacy fixed partitioning as an engineTier.
type partitionedTier struct{ *rtec.Partitioned }

// Query evaluates the partitions concurrently; the tier has no folds.
func (p partitionedTier) Query(q Time, rec *spanRecorder) ([]*rtec.Result, error) {
	results, err := p.Partitioned.Query(q)
	rec.mark(&rec.span.Query)
	if err != nil {
		return nil, err
	}
	rec.engineTimes(results)
	return results, nil
}

// tierSnapBusCong names the tier-state pseudo-fluent inside the tier
// snapshot. The '~' prefix cannot collide with rule names (the
// builder's name space is plain identifiers).
const tierSnapBusCong = "~shard/busCongestion"

// shardTier is the N-way sharded recognition tier (see DESIGN.md,
// "Sharded recognition tier"):
//
//   - bus move events are routed to the shard owning the bus, a pure
//     function of (bus, N): rtec.RendezvousShard; sensor and crowd SDEs
//     are replicated to every shard;
//   - each shard runs the shard-local rule set (traffic.BuildShard)
//     over its own RTEC engine; shards evaluate concurrently;
//   - busCongestion is partial in every shard: the tier folds the
//     shards' transition points into the city-wide fluent, under
//     inertia state it owns, and derives sourceDisagreement from it;
//   - the tier collapses identical derived events reported fresh by
//     different shards (e.g. two shards' buses disagreeing with the
//     same intersection at the same second) to the canonical survivor a
//     single engine would keep, and drops those another shard reported
//     at an earlier boundary — it asks the shards' own dedup sets and
//     keeps none. Internal events (agree) are never reported fresh, so
//     they stay in the shard that derived them.
//
// Keys never move between shards, so each shard's window is a pure
// function of the log, and the tier holds only state no shard holds:
// the busCongestion inertia.
//
// Not safe for concurrent use: like the engines beneath it, the tier
// assumes one caller (the recognition processor).
type shardTier struct {
	reg    *traffic.Registry //state:transient config, injected at construction
	shards []*rtec.Engine

	// busPrev holds busCongestion's un-clipped maximal intervals from
	// the previous query, per area: the inertia seed of the next fold.
	busPrev map[rtec.KV]rtec.List

	fan *rtec.Fanout //state:transient routing and filing scratch
}

// newShardTier assembles the n shard engines.
func newShardTier(cfg Config, tcfg traffic.Config, reg *traffic.Registry) (*shardTier, error) {
	n := cfg.Shards
	t := &shardTier{reg: reg, shards: make([]*rtec.Engine, n)}
	opts := rtec.Options{WorkingMemory: cfg.WorkingMemory}
	for i := range t.shards {
		defs, err := traffic.BuildShard(tcfg, traffic.ShardPlan{
			OwnsSensor: func(sensor string) bool { return rtec.RendezvousShard(sensor, n) == i },
		})
		if err != nil {
			return nil, fmt.Errorf("insight: shard %d rules: %w", i, err)
		}
		if t.shards[i], err = rtec.NewEngine(defs, opts); err != nil {
			return nil, fmt.Errorf("insight: shard %d engine: %w", i, err)
		}
	}
	t.fan = rtec.NewFanout(t.shards)
	return t, nil
}

// InputCut files a cut: move rows go to the shard owning their bus
// (order-preserving, like the legacy partition router), replicated
// types to every shard whole.
func (t *shardTier) InputCut(cut []rtec.BlockRun) ([]time.Duration, error) {
	return t.fan.InputCut(cut, t.owner)
}

// owner routes a move block's rows by bus and replicates the rest.
func (t *shardTier) owner(b *rtec.Block) func(int) int {
	if b.Type != traffic.MoveType {
		return nil
	}
	n := len(t.shards)
	return func(r int) int { return rtec.RendezvousShard(b.Key(r), n) }
}

// Query evaluates every shard concurrently, collapses their Fresh sets
// and folds their busCongestion transition points into the cross-shard
// CEs. The returned slice is the per-shard results followed by the
// tier's own result, whose Stats.Elapsed is the wall time of the whole
// call; MergeResults over it is the tier's merged view.
func (t *shardTier) Query(q Time, rec *spanRecorder) ([]*rtec.Result, error) {
	begin := time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.Elapsed, never the recognition result

	results := make([]*rtec.Result, len(t.shards))
	errs := make([]error, len(t.shards))
	var wg sync.WaitGroup
	for i, e := range t.shards {
		wg.Add(1)
		go func(i int, e *rtec.Engine) {
			defer wg.Done()
			results[i], errs[i] = e.Query(q)
		}(i, e)
	}
	wg.Wait()
	rec.mark(&rec.span.Query)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	rec.engineTimes(results)

	rec.span.ReportedProbes += t.foldFresh(results)
	rec.mark(&rec.span.FoldFresh)
	// scatsIntCongestion reads only replicated input: every shard holds
	// the same instances, so the first shard's stand for all.
	tres, points := t.foldBusCongestion(q, results[0].Window, results[0].Fluents[traffic.ScatsIntCongestion])
	rec.span.FoldPoints += points
	rec.mark(&rec.span.FoldBus)
	tres.Stats.Elapsed = time.Since(begin)
	return append(results, tres), nil
}

// foldBusCongestion builds the tier's own result: busCongestion folded
// from the transition points the shards' last queries derived, and
// sourceDisagreement taken from it. Each shard derived the points of
// its own buses, so together the parts are the point set the single
// engine derives over this window — late arrivals and retractions
// included, since every shard re-derives what a late SDE can touch —
// and a fluent's intervals depend only on that set and the inertia seed.
// It also returns the number of points folded.
func (t *shardTier) foldBusCongestion(q Time, window rtec.Span, scats map[rtec.KV]rtec.List) (*rtec.Result, int) {
	parts := make([][]rtec.Transition, len(t.shards))
	points := 0
	for i, e := range t.shards {
		parts[i] = e.Transitions(traffic.BusCongestion)
		points += len(parts[i])
	}
	t.busPrev = rtec.FoldTransitions(t.busPrev, window, q, parts...)

	res := &rtec.Result{Q: q, Window: window, Derived: map[string][]rtec.Event{}}
	bus := rtec.ClipInstances(t.busPrev, window)
	for _, l := range bus {
		res.Stats.FluentPeriods += len(l)
	}
	res.Fluents = map[string]map[rtec.KV]rtec.List{traffic.BusCongestion: bus}

	// sourceDisagreement = busCongestion \ scatsIntCongestion, per
	// SCATS intersection, over the window. The single-engine rule
	// computes the complement of the un-clipped lists and clips; over
	// the window the two are pointwise equal, and both sides are
	// normalized interval lists, so the representations coincide.
	sd := make(map[rtec.KV]rtec.List)
	for _, in := range t.reg.Intersections() {
		kv := rtec.KV{Key: in.ID, Value: rtec.TrueValue}
		busI := bus[kv]
		if len(busI) == 0 {
			continue
		}
		if d := interval.RelativeComplementAll(busI, []interval.List{scats[kv]}); len(d) > 0 {
			sd[kv] = d
			res.Stats.FluentPeriods += len(d)
		}
	}
	if len(sd) > 0 {
		res.Fluents[traffic.SourceDisagreement] = sd
	}
	return res, points
}

// foldFresh walks the shards' Fresh lists — each in (time, type, key)
// order — as one merged sequence, so derivations of one identity by
// different shards meet, and rewrites the lists in place: same-identity
// events reported fresh by several shards (two shards' buses disagreeing
// with the same intersection at the same second) collapse to the one
// canonical survivor a single engine keeps among same-identity
// derivations (rtec.CanonicalSurvivor), and identities some shard
// already reported at an earlier boundary are suppressed (a second
// shard's late bus disagreeing with an intersection the first
// reported). A
// shard reporting an identity fresh now did not hold it before, so it
// was reported earlier exactly when another shard's dedup set holds it.
// It returns the number of dedup sets it probed.
func (t *shardTier) foldFresh(results []*rtec.Result) (probes int) {
	next := make([]int, len(results)) // read cursor per shard
	kept := make([]int, len(results)) // write cursor per shard, never ahead of next
	var same []rtec.Event             // the heads sharing the smallest identity
	var from []int                    // and the shards they came from
	for {
		same, from = same[:0], from[:0]
		for ri, res := range results {
			if next[ri] == len(res.Fresh) {
				continue
			}
			ev := &res.Fresh[next[ri]]
			if len(same) > 0 {
				switch c := rtec.CompareIdentity(ev, &same[0]); {
				case c > 0:
					continue
				case c < 0:
					same, from = same[:0], from[:0]
				}
			}
			same, from = append(same, *ev), append(from, ri)
		}
		if len(same) == 0 {
			break
		}
		for _, ri := range from {
			next[ri]++
		}
		reported, n := t.reportedBefore(&same[0], from)
		if probes += n; reported {
			continue
		}
		w := rtec.CanonicalSurvivor(same)
		results[from[w]].Fresh[kept[from[w]]] = same[w]
		kept[from[w]]++
	}
	for ri, res := range results {
		res.Fresh = res.Fresh[:kept[ri]]
	}
	return probes
}

// reportedBefore reports whether a shard other than those reporting ev
// fresh now (from) holds ev's identity in its dedup set, and how many
// sets it probed to find out.
func (t *shardTier) reportedBefore(ev *rtec.Event, from []int) (bool, int) {
	probes := 0
	for i, e := range t.shards {
		if slices.Contains(from, i) {
			continue
		}
		probes++
		if e.Reported(ev.Type, ev.Key, ev.Time) {
			return true, probes
		}
	}
	return false, probes
}

// Snapshot captures the whole tier: every shard engine and a trailing
// tier-state pseudo-snapshot holding the busCongestion inertia, so a
// restored tier dedups and folds exactly like the original. The
// pseudo-snapshot's dedup list is empty: the shards' lists beside it
// are the tier's whole dedup state.
func (t *shardTier) Snapshot() ([]*rtec.EngineSnapshot, error) {
	out := make([]*rtec.EngineSnapshot, 0, len(t.shards)+1)
	for i, e := range t.shards {
		s, err := e.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("insight: shard %d: %w", i, err)
		}
		out = append(out, s)
	}
	return append(out, t.stateSnapshot()), nil
}

func (t *shardTier) stateSnapshot() *rtec.EngineSnapshot {
	bus := rtec.FluentSnapshot{Name: tierSnapBusCong}
	for kv, l := range t.busPrev {
		bus.Instances = append(bus.Instances, rtec.InstanceSnapshot{Key: kv.Key, Value: kv.Value, Spans: l.Clone()})
	}
	slices.SortFunc(bus.Instances, func(a, b rtec.InstanceSnapshot) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
	})
	return &rtec.EngineSnapshot{Prev: []rtec.FluentSnapshot{bus}}
}

// Restore replaces the tier's state from a Snapshot: len(shards)
// engine snapshots, then the tier state, which holds what
// stateSnapshot writes and nothing else — the busCongestion inertia. A
// tier state with a dedup list, a query time, a started flag or any
// other section is refused.
func (t *shardTier) Restore(snaps []*rtec.EngineSnapshot) error {
	if len(snaps) != len(t.shards)+1 {
		return fmt.Errorf("insight: %d snapshots for %d shards (+tier state)", len(snaps), len(t.shards))
	}
	st := snaps[len(t.shards)]
	if len(st.Seen) > 0 || st.LastQ != 0 || st.Started {
		return fmt.Errorf("insight: tier snapshot carries engine state (%d dedup identities, LastQ %d, Started %v)", len(st.Seen), st.LastQ, st.Started)
	}
	busPrev := make(map[rtec.KV]rtec.List)
	for _, fs := range st.Prev {
		if fs.Name != tierSnapBusCong {
			return fmt.Errorf("insight: unknown tier snapshot section %q", fs.Name)
		}
		for _, inst := range fs.Instances {
			if !inst.Spans.Valid() {
				return fmt.Errorf("insight: tier snapshot busCongestion %q has invalid intervals", inst.Key)
			}
			busPrev[rtec.KV{Key: inst.Key, Value: inst.Value}] = inst.Spans.Clone()
		}
	}
	for i, e := range t.shards {
		if err := e.Restore(snaps[i]); err != nil {
			return fmt.Errorf("insight: shard %d: %w", i, err)
		}
	}
	t.busPrev = busPrev
	return nil
}
