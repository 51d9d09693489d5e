package insight

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
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
// surface to the admission/evaluate/checkpoint machinery. Input takes
// the one SDE that is born map-backed inside the system, the crowd
// verdict; everything from the input streams arrives through
// InputBlockRows.
type engineTier interface {
	Input(events ...rtec.Event) error
	InputBlockRows(b *rtec.Block, rows []int32) error
	Query(q Time) ([]*rtec.Result, error)
	Snapshot() ([]*rtec.EngineSnapshot, error)
	Restore(snaps []*rtec.EngineSnapshot) error
}

// Names of the tier-state pseudo-fluents inside the tier snapshot.
// The '~' prefix cannot collide with rule names (the builder's name
// space is plain identifiers).
const (
	tierSnapOverrides = "~shard/overrides"
	tierSnapLoad      = "~shard/load"
	tierSnapMeta      = "~shard/meta"
	tierSnapBusCong   = "~shard/busCongestion"

	tierMetaRebalances = "rebalances"
)

// shardTier is the N-way sharded recognition tier (see DESIGN.md,
// "Sharded recognition tier"):
//
//   - bus move events are routed to the shard owning the bus
//     (rendezvous assignment + rebalance overrides); sensor and crowd
//     SDEs are replicated to every shard;
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
//     keeps none;
//   - skew-driven rebalancing migrates the hottest bus keys off an
//     overloaded shard through the store-independent snapshot path.
//
// The tier holds only state no shard holds: the busCongestion inertia,
// the assignment overrides, the routed-move counts and the rebalance
// count.
//
// Not safe for concurrent use: like the engines beneath it, the tier
// assumes one caller (the recognition processor).
type shardTier struct {
	reg *traffic.Registry //state:transient config, injected at construction
	// assign is read concurrently by the shards' OwnsSensor closures
	// during evaluation; its overrides change only between queries.
	assign *rtec.ShardMap
	shards []*rtec.Engine

	// busPrev holds busCongestion's un-clipped maximal intervals from
	// the previous query, per area: the inertia seed of the next fold.
	busPrev map[rtec.KV]rtec.List

	// keyLoad counts routed move events per bus key since the last
	// completed skew check — the deterministic rebalance signal. Empty
	// while automatic rebalancing is off.
	keyLoad map[string]int
	// factor triggers a rebalance when the loaded shard exceeds
	// factor × average routed moves; <= 0 disables automatic
	// rebalancing (manual Rebalance still works).
	factor float64 //state:transient config (Config.RebalanceFactor)
	// minMoves is the minimum routed moves across all shards before a
	// skew check concludes (below it, counts keep accumulating).
	minMoves   int //state:transient config (Config.RebalanceMinMoves)
	rebalances int // carried in the ~shard/meta snapshot section

	scratch [][]int32 //state:transient per-shard row routing scratch buffers
}

// newShardTier assembles the n shard engines.
func newShardTier(cfg Config, tcfg traffic.Config, reg *traffic.Registry) (*shardTier, error) {
	n := cfg.Shards
	assign, err := rtec.NewShardMap(n)
	if err != nil {
		return nil, err
	}
	t := &shardTier{
		reg:      reg,
		assign:   assign,
		shards:   make([]*rtec.Engine, n),
		keyLoad:  make(map[string]int),
		factor:   cfg.RebalanceFactor,
		minMoves: cfg.RebalanceMinMoves,
	}
	if t.minMoves <= 0 {
		t.minMoves = 64 * n
	}
	opts := rtec.Options{
		WorkingMemory: cfg.WorkingMemory,
		Step:          cfg.Step,
		Store:         cfg.Store,
	}
	for i := range t.shards {
		defs, err := traffic.BuildShard(tcfg, traffic.ShardPlan{
			OwnsSensor: func(sensor string) bool { return t.assign.Shard(sensor) == i },
		})
		if err != nil {
			return nil, fmt.Errorf("insight: shard %d rules: %w", i, err)
		}
		if t.shards[i], err = rtec.NewEngine(defs, opts); err != nil {
			return nil, fmt.Errorf("insight: shard %d engine: %w", i, err)
		}
	}
	return t, nil
}

// Input routes events: moves to the owner shard, everything else to
// every shard (replication).
func (t *shardTier) Input(events ...rtec.Event) error {
	for _, ev := range events {
		if ev.Type == traffic.MoveType {
			if t.balancing() {
				t.keyLoad[ev.Key]++
			}
			if err := t.shards[t.assign.Shard(ev.Key)].Input(ev); err != nil {
				return err
			}
			continue
		}
		for _, e := range t.shards {
			if err := e.Input(ev); err != nil {
				return err
			}
		}
	}
	return nil
}

// InputBlockRows routes the given rows of a columnar block: move blocks
// are split per owner shard (order-preserving, like the legacy
// partition router), replicated types go to every shard whole.
func (t *shardTier) InputBlockRows(b *rtec.Block, rows []int32) error {
	if b.Type != traffic.MoveType {
		for _, e := range t.shards {
			if err := e.InputBlockRows(b, rows); err != nil {
				return err
			}
		}
		return nil
	}
	if t.scratch == nil {
		t.scratch = make([][]int32, len(t.shards))
	}
	for i := range t.scratch {
		t.scratch[i] = t.scratch[i][:0]
	}
	counting := t.balancing()
	route := func(r int32) {
		key := b.Key(int(r))
		if counting {
			t.keyLoad[key]++
		}
		i := t.assign.Shard(key)
		t.scratch[i] = append(t.scratch[i], r)
	}
	if rows == nil {
		n := b.Len()
		for r := 0; r < n; r++ {
			route(int32(r))
		}
	} else {
		for _, r := range rows {
			route(r)
		}
	}
	for i, part := range t.scratch {
		if len(part) == 0 {
			continue
		}
		if err := t.shards[i].InputBlockRows(b, part); err != nil {
			return err
		}
	}
	return nil
}

// Query evaluates every shard concurrently, collapses their Fresh sets
// and folds their busCongestion transition points into the cross-shard
// CEs. The returned slice is the per-shard results followed by the
// tier's own result, whose Stats.Elapsed is the wall time of the whole
// call; MergeResults over it is the tier's merged view.
func (t *shardTier) Query(q Time) ([]*rtec.Result, error) {
	begin := time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.Elapsed, never the recognition result
	if err := t.maybeRebalance(); err != nil {
		return nil, err
	}

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
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	t.foldFresh(results)
	// scatsIntCongestion reads only replicated input: every shard holds
	// the same instances, so the first shard's stand for all.
	tres := t.foldBusCongestion(q, results[0].Window, results[0].Fluents[traffic.ScatsIntCongestion])
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
func (t *shardTier) foldBusCongestion(q Time, window rtec.Span, scats map[rtec.KV]rtec.List) *rtec.Result {
	parts := make([][]rtec.Transition, len(t.shards))
	for i, e := range t.shards {
		parts[i] = e.Transitions(traffic.BusCongestion)
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
	return res
}

// foldFresh walks the shards' Fresh lists — each in (time, type, key)
// order — as one merged sequence, so derivations of one identity by
// different shards meet, and rewrites the lists in place: same-identity
// events reported fresh by several shards (two shards' buses disagreeing
// with the same intersection at the same second) collapse to the one
// canonical survivor a single engine keeps among same-identity
// derivations (rtec.CanonicalSurvivor), and identities some shard
// already reported at an earlier boundary are suppressed (a migrated
// bus's disagreements re-derived by the new owner, a second shard's
// late bus disagreeing with an intersection the first reported). A
// shard reporting an identity fresh now did not hold it before, so it
// was reported earlier exactly when another shard's dedup set holds it.
func (t *shardTier) foldFresh(results []*rtec.Result) {
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
		if t.reportedBefore(&same[0], from) {
			continue
		}
		w := rtec.CanonicalSurvivor(same)
		results[from[w]].Fresh[kept[from[w]]] = same[w]
		kept[from[w]]++
	}
	for ri, res := range results {
		res.Fresh = res.Fresh[:kept[ri]]
	}
}

// reportedBefore reports whether a shard other than those reporting ev
// fresh now (from) holds ev's identity in its dedup set.
func (t *shardTier) reportedBefore(ev *rtec.Event, from []int) bool {
	for i, e := range t.shards {
		if !slices.Contains(from, i) && e.Reported(ev.Type, ev.Key, ev.Time) {
			return true
		}
	}
	return false
}

// balancing reports whether automatic rebalancing is on. Only then are
// routed moves counted: maybeRebalance is keyLoad's one reader and the
// one place that clears it, so counting without it would grow the map
// (and every checkpoint's load section) with every bus key ever seen.
func (t *shardTier) balancing() bool { return t.factor > 0 && len(t.shards) > 1 }

// maybeRebalance runs the deterministic skew check: once at least
// minMoves moves have been routed since the last check, and the most
// loaded shard exceeds factor × the average, the hottest keys migrate
// from it to the least loaded shard until the excess is covered.
// Driven purely by routed-event counts — never wall-clock — so the
// same input stream rebalances identically on every run.
func (t *shardTier) maybeRebalance() error {
	if !t.balancing() {
		return nil
	}
	total := 0
	loads := make([]int, len(t.shards))
	for k, n := range t.keyLoad {
		loads[t.assign.Shard(k)] += n
		total += n
	}
	if total < t.minMoves {
		return nil // keep accumulating signal
	}
	maxI, minI := 0, 0
	for i, l := range loads {
		if l > loads[maxI] {
			maxI = i
		}
		if l < loads[minI] {
			minI = i
		}
	}
	avg := float64(total) / float64(len(t.shards))
	if maxI == minI || float64(loads[maxI]) <= t.factor*avg {
		clear(t.keyLoad)
		return nil
	}
	type keyCount struct {
		key string
		n   int
	}
	var hot []keyCount
	for k, n := range t.keyLoad {
		if t.assign.Shard(k) == maxI {
			hot = append(hot, keyCount{k, n})
		}
	}
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].n != hot[j].n {
			return hot[i].n > hot[j].n
		}
		return hot[i].key < hot[j].key
	})
	excess := loads[maxI] - int(avg)
	var keys []string
	for _, h := range hot {
		if excess <= 0 || len(keys) >= len(hot)-1 {
			break // always leave the coldest key behind
		}
		keys = append(keys, h.key)
		excess -= h.n
	}
	clear(t.keyLoad)
	if len(keys) == 0 {
		return nil
	}
	if err := t.migrate(keys, maxI, minI); err != nil {
		return err
	}
	t.rebalances++
	return nil
}

// RebalanceKeys migrates the given keys (bus or sensor IDs) to shard
// `to`, wherever they currently live.
func (t *shardTier) RebalanceKeys(keys []string, to int) error {
	if to < 0 || to >= len(t.shards) {
		return fmt.Errorf("insight: rebalance target shard %d out of range [0,%d)", to, len(t.shards))
	}
	byShard := make(map[int][]string)
	for _, k := range keys {
		if from := t.assign.Shard(k); from != to {
			byShard[from] = append(byShard[from], k)
		}
	}
	froms := make([]int, 0, len(byShard))
	for from := range byShard {
		froms = append(froms, from)
	}
	sort.Ints(froms)
	for _, from := range froms {
		if err := t.migrate(byShard[from], from, to); err != nil {
			return err
		}
	}
	if len(byShard) > 0 {
		t.rebalances++
	}
	return nil
}

// migrate moves the given keys' state from one shard to another
// through the store-independent snapshot path: the owner-routed move
// events and the owner-scoped fluent instances. Dedup entries stay with
// the old owner, which is where foldFresh finds them when the new owner
// re-derives an event the old one reported. The tier's own busCongestion
// inertia is keyed by area and stays put. Both engines restart cold
// (Restore clears the splice caches), which is also what makes the
// ownership flip safe: no cached rule output computed under the old
// assignment survives it.
func (t *shardTier) migrate(keys []string, from, to int) error {
	if from == to || len(keys) == 0 {
		return nil
	}
	moved := make(map[string]bool, len(keys))
	for _, k := range keys {
		moved[k] = true
	}
	snapF, err := t.shards[from].Snapshot()
	if err != nil {
		return fmt.Errorf("insight: migrate: snapshot shard %d: %w", from, err)
	}
	snapT, err := t.shards[to].Snapshot()
	if err != nil {
		return fmt.Errorf("insight: migrate: snapshot shard %d: %w", to, err)
	}

	// 1. Owner-routed SDE rows: the migrated buses' move events, moved
	// column-wise. Tie order against the destination's own rows is
	// unobservable: transition derivation is a set-semantics fold, and
	// per-key sub-orders are preserved (a bus's events only ever move
	// together).
	if err := snapF.MoveRows(snapT, traffic.MoveType, func(key string) bool { return moved[key] }); err != nil {
		return fmt.Errorf("insight: migrate: move rows %d→%d: %w", from, to, err)
	}

	// 2. Owner-scoped fluent instances (noisy, trends, warnings).
	scoped := make(map[string]bool)
	for _, name := range traffic.OwnerScopedFluents() {
		scoped[name] = true
	}
	for fi := range snapF.Prev {
		fs := &snapF.Prev[fi]
		if !scoped[fs.Name] {
			continue
		}
		stay := fs.Instances[:0]
		var go_ []rtec.InstanceSnapshot
		for _, inst := range fs.Instances {
			if moved[inst.Key] {
				go_ = append(go_, inst)
			} else {
				stay = append(stay, inst)
			}
		}
		if len(go_) == 0 {
			continue
		}
		fs.Instances = stay
		dest := findOrAddFluent(snapT, fs.Name)
		dest.Instances = append(dest.Instances, go_...)
		sortInstances(dest.Instances)
	}

	if err := t.shards[from].Restore(snapF); err != nil {
		return fmt.Errorf("insight: migrate: restore shard %d: %w", from, err)
	}
	if err := t.shards[to].Restore(snapT); err != nil {
		return fmt.Errorf("insight: migrate: restore shard %d: %w", to, err)
	}
	for _, k := range keys {
		if err := t.assign.SetOverride(k, to); err != nil {
			return err
		}
	}
	return nil
}

// sortInstances puts fluent instances in the canonical snapshot order.
func sortInstances(insts []rtec.InstanceSnapshot) {
	slices.SortFunc(insts, func(a, b rtec.InstanceSnapshot) int {
		return cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.Value, b.Value))
	})
}

func findOrAddFluent(snap *rtec.EngineSnapshot, name string) *rtec.FluentSnapshot {
	for i := range snap.Prev {
		if snap.Prev[i].Name == name {
			return &snap.Prev[i]
		}
	}
	snap.Prev = append(snap.Prev, rtec.FluentSnapshot{Name: name})
	return &snap.Prev[len(snap.Prev)-1]
}

// Snapshot captures the whole tier: every shard engine and a trailing
// tier-state pseudo-snapshot holding the busCongestion inertia, the
// assignment overrides and the rebalance counters — so a restored tier
// routes, dedups, folds and rebalances exactly like the original. The
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
	ovs := rtec.FluentSnapshot{Name: tierSnapOverrides}
	for _, o := range t.assign.Overrides() {
		ovs.Instances = append(ovs.Instances, rtec.InstanceSnapshot{Key: o.Key, Value: strconv.Itoa(o.Shard)})
	}
	load := rtec.FluentSnapshot{Name: tierSnapLoad}
	loadKeys := make([]string, 0, len(t.keyLoad))
	for k := range t.keyLoad {
		loadKeys = append(loadKeys, k)
	}
	sort.Strings(loadKeys)
	for _, k := range loadKeys {
		load.Instances = append(load.Instances, rtec.InstanceSnapshot{Key: k, Value: strconv.Itoa(t.keyLoad[k])})
	}
	meta := rtec.FluentSnapshot{Name: tierSnapMeta, Instances: []rtec.InstanceSnapshot{
		{Key: tierMetaRebalances, Value: strconv.Itoa(t.rebalances)},
	}}
	bus := rtec.FluentSnapshot{Name: tierSnapBusCong}
	for kv, l := range t.busPrev {
		bus.Instances = append(bus.Instances, rtec.InstanceSnapshot{Key: kv.Key, Value: kv.Value, Spans: l.Clone()})
	}
	sortInstances(bus.Instances)
	return &rtec.EngineSnapshot{Prev: []rtec.FluentSnapshot{ovs, load, meta, bus}}
}

// Restore replaces the tier's state from a Snapshot: len(shards)
// engine snapshots, then the tier state. The tier state's dedup list,
// non-empty in snapshots of builds that kept a tier dedup set, is
// ignored: it is the union of the shard lists beside it.
func (t *shardTier) Restore(snaps []*rtec.EngineSnapshot) error {
	if len(snaps) != len(t.shards)+1 {
		return fmt.Errorf("insight: %d snapshots for %d shards (+tier state)", len(snaps), len(t.shards))
	}
	st := snaps[len(t.shards)]
	assign, err := rtec.NewShardMap(len(t.shards))
	if err != nil {
		return err
	}
	keyLoad := make(map[string]int)
	rebalances := 0
	busPrev := make(map[rtec.KV]rtec.List)
	for _, fs := range st.Prev {
		switch fs.Name {
		case tierSnapOverrides:
			for _, inst := range fs.Instances {
				shard, err := strconv.Atoi(inst.Value)
				if err != nil {
					return fmt.Errorf("insight: tier snapshot override %q: %w", inst.Key, err)
				}
				if err := assign.SetOverride(inst.Key, shard); err != nil {
					return err
				}
			}
		case tierSnapLoad:
			for _, inst := range fs.Instances {
				n, err := strconv.Atoi(inst.Value)
				if err != nil {
					return fmt.Errorf("insight: tier snapshot load %q: %w", inst.Key, err)
				}
				keyLoad[inst.Key] = n
			}
		case tierSnapMeta:
			for _, inst := range fs.Instances {
				switch inst.Key {
				case tierMetaRebalances:
					n, err := strconv.Atoi(inst.Value)
					if err != nil {
						return fmt.Errorf("insight: tier snapshot rebalances %q: %w", inst.Value, err)
					}
					rebalances = n
				default:
					return fmt.Errorf("insight: unknown tier snapshot meta key %q", inst.Key)
				}
			}
		case tierSnapBusCong:
			for _, inst := range fs.Instances {
				if !inst.Spans.Valid() {
					return fmt.Errorf("insight: tier snapshot busCongestion %q has invalid intervals", inst.Key)
				}
				busPrev[rtec.KV{Key: inst.Key, Value: inst.Value}] = inst.Spans.Clone()
			}
		default:
			return fmt.Errorf("insight: unknown tier snapshot section %q", fs.Name)
		}
	}
	for i, e := range t.shards {
		if err := e.Restore(snaps[i]); err != nil {
			return fmt.Errorf("insight: shard %d: %w", i, err)
		}
	}
	t.assign = assign
	t.keyLoad = keyLoad
	t.rebalances = rebalances
	t.busPrev = busPrev
	return nil
}

// Shards returns the configured shard count of the recognition tier,
// or 0 when the system runs the legacy fixed partitioning.
func (s *System) Shards() int {
	if t, ok := s.engines.(*shardTier); ok {
		return len(t.shards)
	}
	return 0
}

// ShardRebalances returns how many key migrations the tier has
// performed (automatic and manual). 0 on the legacy partitioning.
func (s *System) ShardRebalances() int {
	if t, ok := s.engines.(*shardTier); ok {
		return t.rebalances
	}
	return 0
}

// Rebalance migrates the given keys (bus or sensor IDs) to shard `to`
// through the snapshot path. Only valid between query boundaries, and
// only on a sharded system (Config.Shards > 0).
func (s *System) Rebalance(keys []string, to int) error {
	t, ok := s.engines.(*shardTier)
	if !ok {
		return fmt.Errorf("insight: Rebalance requires Config.Shards > 0")
	}
	return t.RebalanceKeys(keys, to)
}
