package traffic

import (
	"fmt"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
)

func TestBuildShardValidation(t *testing.T) {
	reg, err := NewRegistry([]Intersection{{ID: "I1"}}, 150)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildShard(Config{Registry: reg}, ShardPlan{}); err == nil {
		t.Error("BuildShard without OwnsSensor must error")
	}
	defs, err := BuildShard(Config{Registry: reg}, ShardPlan{OwnsSensor: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	if defs == nil {
		t.Fatal("nil definitions")
	}
}

// foldHarness runs the single-engine rule set next to two shard engines
// whose busCongestion transition points are folded the way the tier
// folds them, and compares the fluent at every query. It also compares
// the union of the shards' agree events with the single engine's: agree
// is internal to the product sets, so every set here declares it an
// output as well, and the engine level is the one place both sides show
// it.
type foldHarness struct {
	t      *testing.T
	single *rtec.Engine
	shards []*rtec.Engine
	owners map[string]int // bus → shard
	prev   map[rtec.KV]rtec.List
	held   bool // busCongestion held somewhere at some query
	agreed bool // some shard derived agree at some query
}

func newFoldHarness(t *testing.T, cfg Config, opts rtec.Options, owners map[string]int) *foldHarness {
	t.Helper()
	h := &foldHarness{t: t, owners: owners, shards: make([]*rtec.Engine, 2)}
	withAgree := func(b *rtec.Builder) { b.Output(Agree) }
	single, err := BuildWith(cfg, withAgree)
	if err != nil {
		t.Fatal(err)
	}
	if h.single, err = rtec.NewEngine(single, opts); err != nil {
		t.Fatal(err)
	}
	for i := range h.shards {
		i := i
		defs, err := buildRules(cfg, &ShardPlan{OwnsSensor: func(string) bool { return i == 0 }}, withAgree)
		if err != nil {
			t.Fatal(err)
		}
		if h.shards[i], err = rtec.NewEngine(defs, opts); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// feed routes like the tier: moves to the owner shard, everything else
// to every shard.
func (h *foldHarness) feed(evs ...rtec.Event) {
	h.t.Helper()
	for _, ev := range evs {
		if err := h.single.Input(ev); err != nil {
			h.t.Fatal(err)
		}
		for i, sh := range h.shards {
			if ev.Type == MoveType && h.owners[ev.Key] != i {
				continue
			}
			if err := sh.Input(ev); err != nil {
				h.t.Fatal(err)
			}
		}
	}
}

// query evaluates everything at q, checks the folded busCongestion
// against the single engine's and returns the latter.
func (h *foldHarness) query(q rtec.Time) map[rtec.KV]rtec.List {
	h.t.Helper()
	want, err := h.single.Query(q)
	if err != nil {
		h.t.Fatal(err)
	}
	var parts [][]rtec.Transition
	var agree []string
	for _, sh := range h.shards {
		res, err := sh.Query(q)
		if err != nil {
			h.t.Fatal(err)
		}
		if _, leaked := res.Fluents[BusCongestion]; leaked {
			h.t.Fatal("shard engine computed busCongestion locally")
		}
		parts = append(parts, sh.Transitions(BusCongestion))
		agree = append(agree, agreeLines(res)...)
	}
	slices.Sort(agree)
	if want := agreeLines(want); !slices.Equal(agree, want) {
		h.t.Errorf("q=%d: the shards' agree events %v, want the single engine's %v", q, agree, want)
	}
	h.agreed = h.agreed || len(agree) > 0
	h.prev = rtec.FoldTransitions(h.prev, want.Window, q, parts...)
	got := make(map[rtec.KV]rtec.List)
	for kv, l := range h.prev {
		if c := interval.Clip(l, want.Window); len(c) > 0 {
			got[kv] = c
		}
	}
	wi := want.Fluents[BusCongestion]
	if len(got) != len(wi) {
		h.t.Fatalf("q=%d: %d folded instances, want %d (%v vs %v)", q, len(got), len(wi), got, wi)
	}
	for kv, wl := range wi {
		if gl, ok := got[kv]; !ok || !gl.Equal(wl) {
			h.t.Errorf("q=%d %v: folded %v, want %v", q, kv, got[kv], wl)
		}
	}
	h.held = h.held || len(wi) > 0
	return wi
}

// agreeLines renders a result's agree events, sorted: identity and
// attributes.
func agreeLines(res *rtec.Result) []string {
	var out []string
	for _, ev := range res.Derived[Agree] {
		out = append(out, fmt.Sprintf("%s|%d|%s", ev.Key, ev.Time, rtec.CanonicalAttrs(ev)))
	}
	slices.Sort(out)
	return out
}

func twoAreaRegistry(t *testing.T) (*Registry, geo.Point, geo.Point) {
	t.Helper()
	i1 := geo.Point{Lon: 0, Lat: 0}
	i2 := geo.Point{Lon: 0.01, Lat: 0} // ~1.1 km away: distinct areas
	reg, err := NewRegistry([]Intersection{
		{ID: "I1", Pos: i1, Sensors: []string{"s1", "s2"}},
		{ID: "I2", Pos: i2, Sensors: []string{"s3"}},
	}, 150)
	if err != nil {
		t.Fatal(err)
	}
	return reg, i1, i2
}

func testMove(tm rtec.Time, bus string, pos geo.Point, congested bool) rtec.Event {
	return Move(tm, bus, "L1", "op", 0, pos, 0, congested)
}

// TestShardFoldMatchesSingleEngine pins the core of the sharded
// decomposition at engine level: bus moves split across two shard
// engines running busCongestion as a partial fluent, their transition
// points folded once, must yield exactly the busCongestion fluent the
// single-engine rule set computes — including across a late-arriving
// move that lands between query boundaries.
func TestShardFoldMatchesSingleEngine(t *testing.T) {
	reg, i1, i2 := twoAreaRegistry(t)
	h := newFoldHarness(t, Config{Registry: reg}, rtec.Options{WorkingMemory: 100, Step: 60},
		map[string]int{"alpha": 0, "beta": 1})

	h.feed(
		testMove(10, "alpha", i1, true),
		testMove(40, "beta", i1, false),
		testMove(70, "alpha", i2, true),
		Traffic(30, "s1", "I1", "a", 0.8, 100),
		Traffic(30, "s2", "I1", "b", 0.8, 100),
	)
	h.query(60)

	// A late move (t=55 < lastQ) arrives after the first boundary: its
	// owner shard re-derives the region it dirtied, and the fold must
	// still match the single engine, which sees the same late event.
	h.feed(
		testMove(55, "beta", i1, true),
		testMove(100, "alpha", i2, false), // agrees with I2's sensor, on the other shard than beta
		testMove(130, "beta", i2, false),
	)
	h.query(120)
	h.query(180)

	if !h.held || !h.agreed {
		t.Fatalf("scenario produced busCongestion %v, agree %v: test is vacuous", h.held, h.agreed)
	}
}

// TestShardFoldRetractsNoisyBus is the case events cannot express: under
// Adaptive, a crowd verdict arriving late makes a bus noisy back at a
// time whose report was already folded into busCongestion. The single
// engine re-evaluates and the bus's contribution at that time is gone;
// the fold must lose it too, because the owner shard re-derives its
// points rather than adding to a log of them.
func TestShardFoldRetractsNoisyBus(t *testing.T) {
	reg, i1, _ := twoAreaRegistry(t)
	h := newFoldHarness(t, Config{Registry: reg, Adaptive: true}, rtec.Options{WorkingMemory: 200, Step: 60},
		map[string]int{"alpha": 0, "beta": 1})
	i1KV := rtec.KV{Key: "I1", Value: rtec.TrueValue}

	// No SCATS reading: the sensors say "not congested", so alpha's two
	// congestion reports disagree with them and beta's report agrees.
	h.feed(
		testMove(10, "alpha", i1, true),
		testMove(20, "beta", i1, false),
		testMove(30, "alpha", i1, true),
	)
	before := h.query(60)[i1KV]
	if !before.Contains(40) {
		t.Fatalf("q=60: alpha's report at 30 should hold busCongestion(I1) at 40, got %v", before)
	}

	// The crowd sides with the sensors, late (40 < lastQ): alpha is noisy
	// from its first disagreement on, so its report at 30 no longer counts.
	h.feed(CrowdVerdict(40, "I1", Negative))
	after := h.query(120)[i1KV]
	if after.Contains(40) || !after.Contains(15) {
		t.Fatalf("q=120: want alpha's report at 10 kept and the one at 30 retracted, got %v", after)
	}
	h.query(180)
	if !h.agreed {
		t.Fatal("beta's report never agreed: the agree comparison is vacuous")
	}
}
