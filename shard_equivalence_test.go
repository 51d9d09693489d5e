package insight

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// shardFingerprint is ceFingerprint minus Stats.InputEvents: the
// sharded tier replicates sensor and crowd SDEs to every shard, so its
// engine-level input count legitimately exceeds the single-engine
// reference. Everything recognition produces — the CE sets, alerts,
// crowd rounds, derived and fresh events, every fluent's intervals over
// the window, the derived-event and period counts, fed-event count —
// must still match bit for bit.
func shardFingerprint(rep *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Q=%d window=[%d,%d) fed=%d derivedEvents=%d fluentPeriods=%d\n",
		rep.Q, rep.Window.Start, rep.Window.End, rep.FedEvents, rep.Stats.DerivedEvents, rep.Stats.FluentPeriods)
	fmt.Fprintf(&b, "congested=%s\n", join(rep.CongestedIntersections))
	fmt.Fprintf(&b, "busAreas=%s\n", join(rep.BusCongestionAreas))
	fmt.Fprintf(&b, "disagree=%s\n", join(rep.Disagreements))
	fmt.Fprintf(&b, "warnings=%s\n", join(rep.CongestionWarnings))
	fmt.Fprintf(&b, "unusual=%s\n", join(rep.UnusualCongestion))
	fmt.Fprintf(&b, "noisy=%s\n", join(rep.NoisyBuses))
	for _, a := range rep.Alerts {
		fmt.Fprintf(&b, "alert %s|%s|%d|%s\n", a.Kind, a.Key, a.Time, a.Text)
	}
	for _, c := range rep.CrowdRounds {
		fmt.Fprintf(&b, "crowd %s|%d|%s\n", c.Intersection, c.Queried, c.Verdict.Best)
	}
	if rep.Result != nil {
		types := make([]string, 0, len(rep.Result.Derived))
		for typ := range rep.Result.Derived {
			types = append(types, typ)
		}
		sort.Strings(types)
		for _, typ := range types {
			for _, ev := range rep.Result.Derived[typ] {
				fmt.Fprintf(&b, "derived %s|%s|%d\n", ev.Type, ev.Key, ev.Time)
			}
		}
		for _, ev := range rep.Result.Fresh {
			fmt.Fprintf(&b, "fresh %s|%s|%d|%s\n", ev.Type, ev.Key, ev.Time, rtec.CanonicalAttrs(ev))
		}
		var periods []string
		for name, insts := range rep.Result.Fluents {
			for kv, l := range insts {
				periods = append(periods, fmt.Sprintf("holds %s|%s|%s|%v\n", name, kv.Key, kv.Value, l))
			}
		}
		sort.Strings(periods)
		b.WriteString(strings.Join(periods, ""))
	}
	return b.String()
}

// carriedBusCongestion reports whether some area's busCongestion period
// in rep begins at the window start: a period the events inside the
// window did not initiate, carried in by the inertia seed.
func carriedBusCongestion(rep *Report) bool {
	for _, l := range rep.Result.Fluents[traffic.BusCongestion] {
		if len(l) > 0 && l[0].Start == rep.Window.Start {
			return true
		}
	}
	return false
}

func compareShardReports(t *testing.T, label string, got, want []*Report) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(want))
	}
	for i := range got {
		gf, wf := shardFingerprint(got[i]), shardFingerprint(want[i])
		if gf != wf {
			t.Errorf("%s: report %d differs:\n--- sharded ---\n%s--- reference ---\n%s", label, i, gf, wf)
		}
	}
}

// TestShardEquivalenceGrid is the tentpole gate: the full Dublin
// pipeline — crowdsourcing loop included, chaos dropping and
// duplicating rows on every stream — must recognise bit-identical
// complex events through the N-way sharded recognition tier at every
// shard count and with either store kind, compared against the
// single-engine reference (the legacy path with one partition).
func TestShardEquivalenceGrid(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const wm = Time(1800)

	chaos := ChaosConfig{Streams: map[string]streams.FaultSpec{}}
	for i, id := range []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"} {
		chaos.Streams[id] = streams.FaultSpec{
			Seed:     300 + int64(i)*11,
			DropProb: 0.06,
			DupProb:  0.06,
		}
	}

	city := testCity(t)
	run := func(shards int, kind rtec.StoreKind) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: wm,
			Step:          wm / 2,
			Partitions:    1, // single-engine reference when Shards == 0
			Shards:        shards,
			Store:         kind,
			Participants:  testParticipants(city, 8),
			UnpacedReplay: true,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := sys.BuildChaosPipeline(from, until, chaos)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		dropped, duplicated := 0, 0
		for _, cs := range pipe.Chaos {
			dropped += cs.Stats().Dropped
			duplicated += cs.Stats().Duplicated
		}
		if dropped == 0 || duplicated == 0 {
			t.Fatalf("chaos injected %d drops, %d dups: fault injection inert", dropped, duplicated)
		}
		return reports
	}

	reference := run(0, rtec.StoreRow)
	if len(reference) == 0 {
		t.Fatal("reference run produced no reports")
	}
	nonEmpty := false
	for _, rep := range reference {
		if len(rep.CongestedIntersections) > 0 || len(rep.BusCongestionAreas) > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		t.Fatal("reference run recognised nothing: grid is vacuous")
	}

	for _, n := range []int{1, 2, 4, 8} {
		for _, kind := range []rtec.StoreKind{rtec.StoreRow, rtec.StoreColumn} {
			t.Run(fmt.Sprintf("shards=%d/store=%v", n, kind), func(t *testing.T) {
				compareShardReports(t, fmt.Sprintf("%d shards vs single engine", n),
					run(n, kind), reference)
			})
		}
	}
}

// TestShardRebalanceDeterminism pins the migration path: a run that
// migrates live bus and sensor keys between shards mid-window must
// produce bit-identical reports to the same run without any
// rebalancing — no derived event dropped or duplicated across the
// ownership flip.
func TestShardRebalanceDeterminism(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	const step = Time(900)
	city := testCity(t)

	mk := func() *System {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 1800,
			Step:          step,
			Shards:        4,
			Store:         rtec.StoreColumn,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	var base []*Report
	sys := mk()
	if err := sys.Run(context.Background(), from, until, func(r *Report) error {
		base = append(base, r)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := sys.ShardRebalances(); n != 0 {
		t.Fatalf("base run rebalanced %d times; automatic rebalancing should be off", n)
	}

	// Same run, but halfway through, three live buses and two live
	// sensors migrate to the shard after their current one.
	var keys []string
	for _, b := range city.Buses()[:3] {
		keys = append(keys, b.ID)
	}
	for _, s := range city.Sensors()[:2] {
		keys = append(keys, s.ID)
	}
	sys2 := mk()
	var moved []*Report
	mid := from + (until-from)/2
	if err := sys2.Run(context.Background(), from, until, func(rep *Report) error {
		moved = append(moved, rep)
		if rep.Q != mid {
			return nil
		}
		// The callback runs between boundaries: the migration lands
		// after mid is complete and before a row is admitted for mid+step.
		return sys2.Rebalance(keys, (rtec.RendezvousShard(keys[0], 4)+1)%4)
	}); err != nil {
		t.Fatal(err)
	}
	if n := sys2.ShardRebalances(); n < 1 {
		t.Fatalf("rebalances = %d, want >= 1", n)
	}
	// The tier's busCongestion inertia is keyed by area: migrating buses
	// must leave it alone, and the boundary after the migration leans on it.
	if after := moved[(mid-from)/step]; after.Q != mid+step || !carriedBusCongestion(after) {
		t.Fatalf("q=%d: no area bus-congested across the migration: inertia path not exercised", after.Q)
	}
	for _, rep := range moved {
		if len(rep.DegradedStreams) > 0 {
			t.Errorf("q=%d: degraded streams %v after rebalance", rep.Q, rep.DegradedStreams)
		}
	}
	compareShardReports(t, "rebalanced vs unrebalanced", moved, base)
}

// TestShardAutoRebalancePipeline runs the live columnar pipeline with
// aggressive automatic skew-driven rebalancing and checks that (a) the
// tier actually migrates keys, (b) no input stream degrades, and (c)
// recognition stays bit-identical to the single-engine reference even
// while keys move between shards during the run.
func TestShardAutoRebalancePipeline(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)

	run := func(shards int, factor float64) ([]*Report, *System) {
		t.Helper()
		sys, err := New(Config{
			City:              city,
			Seed:              7,
			WorkingMemory:     1800,
			Step:              900,
			Partitions:        1,
			Shards:            shards,
			RebalanceFactor:   factor,
			RebalanceMinMoves: 40,
			Store:             rtec.StoreColumn,
			UnpacedReplay:     true,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pipe, err := sys.BuildPipeline(from, until)
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return reports, sys
	}

	reference, _ := run(0, 0)
	rebalanced, sys := run(4, 1.01)
	if n := sys.ShardRebalances(); n < 1 {
		t.Fatalf("rebalances = %d, want >= 1: skew trigger inert", n)
	}
	for _, rep := range rebalanced {
		if len(rep.DegradedStreams) > 0 {
			t.Errorf("q=%d: degraded streams %v", rep.Q, rep.DegradedStreams)
		}
	}
	compareShardReports(t, "auto-rebalanced vs single engine", rebalanced, reference)
}

// TestShardTierSnapshotRoundTrip checks the tier's own checkpoint
// surface: snapshotting a sharded system mid-run — rebalance overrides
// and all — and restoring it into a fresh system (with the other store
// kind) must continue bit-identically with the original. So must the
// same snapshot with the tier dedup list earlier builds wrote — the
// union of the shards' lists — which a restore ignores.
func TestShardTierSnapshotRoundTrip(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	const step = Time(900)
	city := testCity(t)

	var sdes []dublin.SDE
	gen := city.Stream(from, until)
	for {
		sde, ok := gen.Next()
		if !ok {
			break
		}
		sdes = append(sdes, sde)
	}

	mk := func(kind rtec.StoreKind) *System {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 1800,
			Step:          step,
			Shards:        3,
			Store:         kind,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	// System A runs the whole window; at mid its callback — between
	// boundaries, so the tier is exactly "after mid" — snapshots it and
	// restores the snapshot into system B, which then runs the rest of the
	// recording on its own.
	mid := from + 4*step
	sysA, sysB, sysC := mk(rtec.StoreColumn), mk(rtec.StoreRow), mk(rtec.StoreColumn)
	var snaps []*rtec.EngineSnapshot
	var wire [][]byte
	// The restore goes through the binary form the checkpoint file
	// carries, into the other store kind: snapshots are
	// store-independent, and the restored tier's own snapshot is byte
	// for byte the one it was restored from.
	encode := func(snaps []*rtec.EngineSnapshot) [][]byte {
		t.Helper()
		out := make([][]byte, len(snaps))
		for i, s := range snaps {
			var err error
			if out[i], err = s.AppendBinary(nil); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	decode := func(wire [][]byte) []*rtec.EngineSnapshot {
		t.Helper()
		out := make([]*rtec.EngineSnapshot, len(wire))
		for i, b := range wire {
			out[i] = &rtec.EngineSnapshot{}
			if err := out[i].UnmarshalBinary(b); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	var repA, repB, repC []*Report
	if err := sysA.RunReplay(context.Background(), sdes, from, until, func(rep *Report) error {
		switch {
		case rep.Q == from+2*step:
			// Make the tier state non-trivial before the checkpoint.
			return sysA.Rebalance([]string{city.Buses()[0].ID}, 2)
		case rep.Q == mid:
			var err error
			if snaps, err = sysA.engines.Snapshot(); err != nil {
				return err
			}
			wire = encode(snaps)
			return sysB.engines.Restore(decode(wire))
		case rep.Q > mid:
			repA = append(repA, rep)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := 3 + 1; len(snaps) != want {
		t.Fatalf("tier snapshot has %d parts, want %d (shards + tier state)", len(snaps), want)
	}
	snapsB, err := sysB.engines.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range encode(snapsB) {
		if !bytes.Equal(b, wire[i]) {
			t.Errorf("tier snapshot part %d changed across the column→bytes→row round trip", i)
		}
	}
	legacy := decode(wire)
	tierState := legacy[len(legacy)-1]
	if len(tierState.Seen) != 0 {
		t.Fatalf("tier state carries %d dedup identities, want none", len(tierState.Seen))
	}
	for _, s := range legacy[:len(legacy)-1] {
		tierState.Seen = append(tierState.Seen, s.Seen...)
	}
	slices.SortFunc(tierState.Seen, rtec.SeenEntry.Compare)
	tierState.Seen = slices.Compact(tierState.Seen)
	if len(tierState.Seen) == 0 {
		t.Fatal("the shards hold no dedup identities: legacy restore is vacuous")
	}
	if err := sysC.engines.Restore(legacy); err != nil {
		t.Fatal(err)
	}
	snapsC, err := sysC.engines.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range encode(snapsC) {
		if !bytes.Equal(b, wire[i]) {
			t.Errorf("tier snapshot part %d differs after a restore from a tier dedup list", i)
		}
	}
	var tail []dublin.SDE
	for _, sde := range sdes {
		if sde.Arrival > mid {
			tail = append(tail, sde)
		}
	}
	if err := sysB.RunReplay(context.Background(), tail, mid, until, func(rep *Report) error {
		repB = append(repB, rep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := sysC.RunReplay(context.Background(), tail, mid, until, func(rep *Report) error {
		repC = append(repC, rep)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	nonEmpty := false
	for _, rep := range repA {
		if len(rep.CongestedIntersections) > 0 {
			nonEmpty = true
		}
	}
	if !nonEmpty {
		t.Fatal("post-checkpoint run recognised nothing: round-trip is vacuous")
	}
	// The first boundary after the restore starts from the tier-owned
	// busCongestion inertia, which only the snapshot could have carried.
	if !carriedBusCongestion(repA[0]) {
		t.Fatal("no area bus-congested across the snapshot point: inertia path not exercised")
	}
	compareShardReports(t, "restored vs original", repB, repA)
	compareShardReports(t, "restored with a tier dedup list vs original", repC, repA)

	// A wrong-arity restore must be rejected.
	if err := sysB.engines.Restore(snaps[:3]); err == nil {
		t.Error("restore with missing snapshots must error")
	}
}

// TestShardTierElapsed: the tier's own result times the whole Query —
// rebalance check, the parallel shard queries and the serial fold behind
// them — so the merged Stats.Elapsed is the boundary's recognition time,
// not the slowest shard's.
func TestShardTierElapsed(t *testing.T) {
	const from = Time(7 * 3600)
	sys, err := New(Config{City: testCity(t), Seed: 7, WorkingMemory: 1800, Step: 900, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	var adm admission
	defer adm.release()
	for _, bs := range sys.collect(from, from+900) {
		for _, b := range bs.Batches {
			adm.retain(b, b.Len())
		}
	}
	if _, err := adm.admit(sys, from+900); err != nil {
		t.Fatal(err)
	}
	results, err := sys.engines.Query(from + 900)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3+1 {
		t.Fatalf("%d results, want 3 shards + the tier's own", len(results))
	}
	tier := results[3].Stats.Elapsed
	if tier <= 0 {
		t.Fatalf("tier result Elapsed = %v, want > 0", tier)
	}
	for i, res := range results[:3] {
		if res.Stats.Elapsed > tier {
			t.Errorf("shard %d Elapsed %v exceeds the tier's %v", i, res.Stats.Elapsed, tier)
		}
	}
	if got := rtec.MergeResults(results).Stats.Elapsed; got != tier {
		t.Errorf("merged Elapsed = %v, want the tier's %v", got, tier)
	}
}

// TestShardKeyLoadOffWithoutRebalancing: with automatic rebalancing off
// nothing reads (or clears) the per-key routed-move counts, so none may
// be kept — not in the tier, not in its snapshot's load section, which
// every checkpoint carries.
func TestShardKeyLoadOffWithoutRebalancing(t *testing.T) {
	const from = Time(7 * 3600)
	sys, err := New(Config{City: testCity(t), Seed: 7, WorkingMemory: 1800, Step: 900, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	fed := 0
	err = sys.Run(context.Background(), from, from+2*900, func(r *Report) error {
		fed += r.FedEvents
		return nil
	})
	if err != nil || fed == 0 {
		t.Fatalf("two-boundary run fed %d SDEs (err=%v)", fed, err)
	}
	tier := sys.engines.(*shardTier)
	if len(tier.keyLoad) != 0 {
		t.Errorf("keyLoad holds %d keys with RebalanceFactor 0", len(tier.keyLoad))
	}
	for _, fs := range tier.stateSnapshot().Prev {
		if fs.Name == tierSnapLoad && len(fs.Instances) != 0 {
			t.Errorf("snapshot load section carries %d instances with RebalanceFactor 0", len(fs.Instances))
		}
	}
}

// TestShardRebalanceCounterSurvivesRestore pins the fix for a snapshot
// drift caught by the snapshotdrift analyzer: shardTier.rebalances was
// documented as captured but never serialized, so a restored tier
// reported zero migrations. The counter now rides in the ~shard/meta
// section of the tier-state pseudo-snapshot.
func TestShardRebalanceCounterSurvivesRestore(t *testing.T) {
	const from = Time(7 * 3600)
	const step = Time(900)
	city := testCity(t)

	mk := func() *System {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 1800,
			Step:          step,
			Shards:        3,
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}

	sysA := mk()
	var sdes []dublin.SDE
	gen := city.Stream(from, from+2*step)
	for {
		sde, ok := gen.Next()
		if !ok {
			break
		}
		sdes = append(sdes, sde)
	}
	if err := sysA.RunReplay(context.Background(), sdes, from, from+step, nil); err != nil {
		t.Fatal(err)
	}
	buses := city.Buses()
	if err := sysA.Rebalance([]string{buses[0].ID}, 2); err != nil {
		t.Fatal(err)
	}
	if err := sysA.Rebalance([]string{buses[1].ID}, 1); err != nil {
		t.Fatal(err)
	}
	want := sysA.ShardRebalances()
	if want == 0 {
		t.Fatal("manual rebalances did not increment the counter: test is vacuous")
	}

	snaps, err := sysA.engines.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sysB := mk()
	if err := sysB.engines.Restore(snaps); err != nil {
		t.Fatal(err)
	}
	if got := sysB.ShardRebalances(); got != want {
		t.Fatalf("restored tier reports %d rebalances, want %d", got, want)
	}
}

// TestShardFreshDedupAcrossShards pins the tier's cross-shard Fresh
// dedup on two scripted streams, each run through RunReplay at two
// shards and compared with the single engine — fresh events and alerts
// included. (a) Two buses owned by different shards disagree with one
// intersection at the same second; the second bus's SDE arrives after
// the boundary that reported the first. (b) A bus whose disagree and
// delayIncrease were reported at q migrates in the report callback, and
// its new owner re-derives both at q+Step. Either way a shard derives,
// and sees as new, an identity another shard reported at an earlier
// boundary: only the tier's dedup keeps it out of Result.Fresh.
func TestShardFreshDedupAcrossShards(t *testing.T) {
	const step = Time(900)
	const from = Time(7 * 3600)
	const until = from + 4*step
	city := testCity(t)
	inters := city.Intersections()

	// Every sensor reports an empty road every minute, so no
	// intersection is congested and a bus claiming congestion at one
	// disagrees with it.
	var scats []dublin.SDE
	for ts := from; ts < until; ts += 60 {
		for _, s := range city.Sensors() {
			ev := traffic.Traffic(ts, s.ID, s.Intersection, s.Approach, 0, 0)
			ev.Attrs["lon"], ev.Attrs["lat"] = s.Pos.Lon, s.Pos.Lat
			scats = append(scats, dublin.SDE{Event: ev, Arrival: ts})
		}
	}
	// Bus keys the rendezvous assignment puts on shard 0 and on shard 1.
	var onShard [2]string
	for i := 0; onShard[0] == "" || onShard[1] == ""; i++ {
		id := fmt.Sprintf("scripted%d", i)
		if s := rtec.RendezvousShard(id, 2); onShard[s] == "" {
			onShard[s] = id
		}
	}
	move := func(ts, arrival Time, bus string, delay int64, at traffic.Intersection) dublin.SDE {
		return dublin.SDE{Event: traffic.Move(ts, bus, "L1", "op", delay, at.Pos, 0, true), Arrival: arrival}
	}
	hasDerived := func(rep *Report, typ, key string, ts Time, bus string) bool {
		for _, ev := range rep.Result.Derived[typ] {
			if ev.Key != key || ev.Time != ts {
				continue
			}
			if b, _ := ev.Str("bus"); typ != traffic.Disagree || b == bus {
				return true
			}
		}
		return false
	}
	run := func(shards int, sdes []dublin.SDE, migrate map[Time]string) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 2 * step,
			Step:          step,
			Partitions:    1, // single-engine reference when Shards == 0
			Shards:        shards,
			Store:         rtec.StoreColumn,
			UnpacedReplay: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var reports []*Report
		if err := sys.RunReplay(context.Background(), sdes, from, until, func(rep *Report) error {
			reports = append(reports, rep)
			if bus, ok := migrate[rep.Q]; ok && shards > 0 {
				return sys.Rebalance([]string{bus}, 1-rtec.RendezvousShard(bus, 2))
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return reports
	}
	at := func(reports []*Report, q Time) *Report {
		t.Helper()
		for _, rep := range reports {
			if rep.Q == q {
				return rep
			}
		}
		t.Fatalf("no report at q=%d", q)
		return nil
	}

	t.Run("two-shards-one-identity", func(t *testing.T) {
		q := from + step
		in, ts := inters[0], q-100
		sdes := append(slices.Clone(scats),
			move(ts, ts, onShard[0], 0, in),
			move(ts, q+60, onShard[1], 0, in), // after q, inside the window of q+step
		)
		ref, got := run(0, sdes, nil), run(2, sdes, nil)
		if !slices.ContainsFunc(at(ref, q).Result.Fresh, func(ev rtec.Event) bool {
			return ev.Type == traffic.Disagree && ev.Key == in.ID && ev.Time == ts
		}) {
			t.Fatalf("q=%d: the first bus's disagreement is not fresh: script is vacuous", q)
		}
		if !hasDerived(at(got, q+step), traffic.Disagree, in.ID, ts, onShard[1]) {
			t.Fatalf("q=%d: the second bus's shard did not derive the disagreement: script is vacuous", q+step)
		}
		compareShardReports(t, "cross-shard duplicate vs single engine", got, ref)
	})

	t.Run("migrated-bus", func(t *testing.T) {
		q := from + 2*step
		in, bus := inters[len(inters)/2], onShard[0]
		t1, t2 := q-150, q-100 // delay grows by 120 s in 50 s: delayIncrease at t2
		sdes := append(slices.Clone(scats),
			move(t1, t1, bus, 0, in),
			move(t2, t2, bus, 120, in),
		)
		ref, got := run(0, sdes, nil), run(2, sdes, map[Time]string{q: bus})
		for _, typ := range []string{traffic.Disagree, traffic.DelayIncrease} {
			key := in.ID
			if typ == traffic.DelayIncrease {
				key = bus
			}
			if !slices.ContainsFunc(at(ref, q).Result.Fresh, func(ev rtec.Event) bool {
				return ev.Type == typ && ev.Key == key && ev.Time == t2
			}) {
				t.Fatalf("q=%d: %s(%s, %d) is not fresh: script is vacuous", q, typ, key, t2)
			}
			if !hasDerived(at(got, q+step), typ, key, t2, bus) {
				t.Fatalf("q=%d: the new owner did not re-derive %s(%s, %d): script is vacuous", q+step, typ, key, t2)
			}
		}
		compareShardReports(t, "migrated re-derivation vs single engine", got, ref)
	})
}
