package insight

import (
	"bytes"
	"context"
	"fmt"
	"math"
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
// shard count, compared against the single-engine reference (the
// legacy path with one partition). Every engine keeps its working
// memory in the column store, the one the subtests are named for.
func TestShardEquivalenceGrid(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	const wm = Time(1800)

	chaos := map[string]streams.FaultSpec{}
	for i, id := range []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"} {
		chaos[id] = streams.FaultSpec{
			Seed:     300 + int64(i)*11,
			DropProb: 0.06,
			DupProb:  0.06,
		}
	}

	city := testCity(t)
	run := func(shards int) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: wm,
			Step:          wm / 2,
			Partitions:    1, // single-engine reference when Shards == 0
			Shards:        shards,
			Participants:  testParticipants(city, 8),
			Traffic: traffic.Config{
				NoisyPolicy: traffic.Pessimistic,
				Adaptive:    true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		pipe, _, err := sys.Pipeline(from, until, PipelineOptions{Chaos: chaos})
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

	reference := run(0)
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
		t.Run(fmt.Sprintf("shards=%d/store=column", n), func(t *testing.T) {
			compareShardReports(t, fmt.Sprintf("%d shards vs single engine", n), run(n), reference)
		})
	}
}

// TestShardTierSnapshotRoundTrip checks the tier's own checkpoint
// surface: snapshotting a sharded system mid-run and restoring it into
// a fresh system, the SDEs that arrived by then re-admitted, must
// continue bit-identically with the original.
// The tier state holds the busCongestion inertia and nothing else.
func TestShardTierSnapshotRoundTrip(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	const step = Time(900)
	city := testCity(t)

	sdes := city.Collect(from, until)

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

	// System A runs the whole window; at mid its callback — between
	// boundaries, so the tier is exactly "after mid" — snapshots it and
	// restores the snapshot into system B, which then runs the rest of the
	// recording on its own.
	mid := from + 4*step
	sysA, sysB := mk(), mk()
	var snaps []*rtec.EngineSnapshot
	var wire [][]byte
	// The restore goes through the binary form the checkpoint file
	// carries, and the restored tier's own snapshot is byte for byte the
	// one it was restored from.
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
	// rebuild re-admits into a restored system the SDEs that arrived by
	// mid, boundary by boundary as the original run admitted them — what
	// durable recovery re-reads from its log; the engines drop the rows
	// their working memory no longer holds.
	rebuild := func(sys *System) error {
		var adm admission
		defer adm.release()
		lo := Time(math.MinInt64)
		for q := from + step; q <= mid; q += step {
			var due []dublin.SDE
			for _, sde := range sdes {
				if sde.Arrival > lo && sde.Arrival <= q {
					due = append(due, sde)
				}
			}
			lo = q
			batched, err := dublin.BatchSDEs(due, transportBatchRows, step/2)
			if err != nil {
				return err
			}
			for _, bs := range batched {
				for _, b := range bs.Batches {
					adm.retain(b, b.Len(), 0)
				}
			}
			if _, err := adm.admit(sys, q, newSpanRecorder()); err != nil {
				return err
			}
		}
		return nil
	}
	var repA, repB []*Report
	if err := runToEnd(context.Background())(sysA.Pipeline(from, until, PipelineOptions{Replay: sdes, OnReport: func(rep *Report) error {
		switch {
		case rep.Q == mid:
			var err error
			if snaps, err = sysA.engines.Snapshot(); err != nil {
				return err
			}
			wire = encode(snaps)
			if err := sysB.engines.Restore(decode(wire)); err != nil {
				return err
			}
			return rebuild(sysB)
		case rep.Q > mid:
			repA = append(repA, rep)
		}
		return nil
	}})); err != nil {
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
			t.Errorf("tier snapshot part %d changed across the bytes round trip", i)
		}
	}
	if st := snaps[len(snaps)-1]; len(st.Seen) != 0 || st.LastQ != 0 || st.Started {
		t.Fatalf("tier state carries engine state: %d dedup identities, LastQ %d, Started %v", len(st.Seen), st.LastQ, st.Started)
	}
	var tail []dublin.SDE
	for _, sde := range sdes {
		if sde.Arrival > mid {
			tail = append(tail, sde)
		}
	}
	if err := runToEnd(context.Background())(sysB.Pipeline(mid, until, PipelineOptions{Replay: tail, OnReport: func(rep *Report) error {
		repB = append(repB, rep)
		return nil
	}})); err != nil {
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
}

// TestShardTierRestoreRefuses: a tier restore takes exactly what
// Snapshot writes — one snapshot per shard, then a tier state holding
// only the busCongestion inertia. Each hand-built snapshot below breaks
// that in one field and is refused, by what it breaks.
func TestShardTierRestoreRefuses(t *testing.T) {
	sys, err := New(Config{City: testCity(t), Seed: 7, WorkingMemory: 1800, Step: 900, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, want string
		state      rtec.EngineSnapshot // the tier state; nil Prev: none
		shards     int
	}{
		{"missing shard", "2 snapshots for 3 shards", rtec.EngineSnapshot{}, 1},
		{"dedup list", "1 dedup identities", rtec.EngineSnapshot{Seen: []rtec.SeenEntry{{Type: "disagree", Key: "bus33000", Time: 7 * 3600}}}, 3},
		{"query time", "LastQ 26100", rtec.EngineSnapshot{LastQ: 7*3600 + 900}, 3},
		{"started", "Started true", rtec.EngineSnapshot{Started: true}, 3},
		// The key-migration overrides of builds that rebalanced the tier:
		// this build cannot route by them.
		{"unknown section", `"~shard/overrides"`, rtec.EngineSnapshot{Prev: []rtec.FluentSnapshot{{Name: "~shard/overrides", Instances: []rtec.InstanceSnapshot{
			{Key: "bus33000", Value: "2"},
		}}}}, 3},
		{"invalid inertia", "invalid intervals", rtec.EngineSnapshot{Prev: []rtec.FluentSnapshot{{Name: tierSnapBusCong, Instances: []rtec.InstanceSnapshot{
			{Key: "area7", Value: "true", Spans: rtec.List{{Start: 900, End: 0}}},
		}}}}, 3},
	} {
		snaps := make([]*rtec.EngineSnapshot, 0, tc.shards+1)
		for range tc.shards {
			snaps = append(snaps, &rtec.EngineSnapshot{})
		}
		snaps = append(snaps, &tc.state)
		if err := sys.engines.Restore(snaps); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore = %v, want it refused with %q", tc.name, err, tc.want)
		}
	}
}

// TestShardTierElapsed: the tier's own result times the whole Query —
// the parallel shard queries and the serial fold behind them — so the merged Stats.Elapsed is the boundary's recognition time,
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
			adm.retain(b, b.Len(), 0)
		}
	}
	if _, err := adm.admit(sys, from+900, newSpanRecorder()); err != nil {
		t.Fatal(err)
	}
	results, err := sys.engines.Query(from+900, newSpanRecorder())
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

// TestShardFreshDedupAcrossShards pins the tier's cross-shard Fresh
// dedup on a scripted stream, replayed through System.Pipeline at two shards and
// compared with the single engine — fresh events and alerts included.
// Two buses owned by different shards disagree with one intersection at
// the same second; the second bus's SDE arrives after the boundary that
// reported the first. Its shard derives, and sees as new, an identity
// the other shard reported at an earlier boundary: only the tier's
// dedup keeps it out of Result.Fresh.
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
	disagrees := func(rep *Report, key string, ts Time, bus string) bool {
		for _, ev := range rep.Result.Derived[traffic.Disagree] {
			if b, _ := ev.Str("bus"); ev.Key == key && ev.Time == ts && b == bus {
				return true
			}
		}
		return false
	}
	run := func(shards int, sdes []dublin.SDE) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          city,
			Seed:          7,
			WorkingMemory: 2 * step,
			Step:          step,
			Partitions:    1, // single-engine reference when Shards == 0
			Shards:        shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		var reports []*Report
		if err := runToEnd(context.Background())(sys.Pipeline(from, until, PipelineOptions{Replay: sdes, OnReport: func(rep *Report) error {
			reports = append(reports, rep)
			return nil
		}})); err != nil {
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
		ref, got := run(0, sdes), run(2, sdes)
		if !slices.ContainsFunc(at(ref, q).Result.Fresh, func(ev rtec.Event) bool {
			return ev.Type == traffic.Disagree && ev.Key == in.ID && ev.Time == ts
		}) {
			t.Fatalf("q=%d: the first bus's disagreement is not fresh: script is vacuous", q)
		}
		if !disagrees(at(got, q+step), in.ID, ts, onShard[1]) {
			t.Fatalf("q=%d: the second bus's shard did not derive the disagreement: script is vacuous", q+step)
		}
		compareShardReports(t, "cross-shard duplicate vs single engine", got, ref)
	})
}
