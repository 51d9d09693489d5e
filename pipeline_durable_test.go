package insight

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// durableConfig is the system configuration durable runs use in these
// tests: crowdless (replay must not re-query participants), unpaced
// with a strict watermark (deterministic and fast — no degradation
// possible, so recognition output is a pure function of the SDE
// collection). The column-resident store is named explicitly so the
// whole durability suite — checkpoints, crash recovery, fingerprint
// equivalence — visibly runs against the block-native working memory
// (checkpoints themselves are store-representation-independent, see
// rtec snapshots).
func durableConfig(city *dublin.City) Config {
	return Config{
		City:          city,
		Seed:          7,
		WorkingMemory: 1800,
		Step:          900,
		Store:         rtec.StoreColumn,
		UnpacedReplay: true,
		Traffic: traffic.Config{
			NoisyPolicy: traffic.Pessimistic,
			Adaptive:    true,
		},
	}
}

func durableSystem(t *testing.T, city *dublin.City) *System {
	t.Helper()
	sys, err := New(durableConfig(city))
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDurableMatchesPlain: the durable pipeline — WAL, checkpoints and
// all — must recognise exactly what the plain pipeline recognises, and
// must not leak transport buffers.
func TestDurableMatchesPlain(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city := testCity(t)

	plainPipe, err := durableSystem(t, city).BuildPipeline(from, until)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainPipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) == 0 {
		t.Fatal("plain run produced no reports")
	}

	dir := t.TempDir()
	before := streams.LiveBatches()
	pipe, info, err := durableSystem(t, city).BuildDurablePipeline(from, until, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info.Resumed || info.ReplayedRecords != 0 || info.SkippedEnvelopes != 0 {
		t.Fatalf("fresh directory but RecoveryInfo = %+v", info)
	}
	durable, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if live := streams.LiveBatches(); live != before {
		t.Errorf("live batches = %d, want %d: durable run leaked transport buffers", live, before)
	}
	if len(durable) != len(plain) {
		t.Fatalf("durable run fired %d boundaries, plain fired %d", len(durable), len(plain))
	}
	for i := range plain {
		if g, w := durable[i].Fingerprint(), plain[i].Fingerprint(); g != w {
			t.Errorf("q=%d diverged:\n  durable: %s\n  plain:   %s", int64(plain[i].Q), g, w)
		}
	}

	// The run left its durability artifacts behind: checkpoints in the
	// root, WAL segments underneath.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := 0
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), ".ck") {
			ckpts++
		}
	}
	if ckpts == 0 {
		t.Error("completed durable run left no checkpoint files")
	}
	if ckpts > ckptKeep {
		t.Errorf("checkpoint GC kept %d files, want at most %d", ckpts, ckptKeep)
	}
	segs, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil || len(segs) == 0 {
		t.Errorf("no WAL segments after durable run (err=%v)", err)
	}

	// Resuming a completed run must change nothing: the cursors skip
	// every envelope, recognition state is already final, and the union
	// of reports stays consistent with the baseline.
	pipe2, info2, err := durableSystem(t, city).BuildDurablePipeline(from, until, DurableOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if !info2.Resumed {
		t.Fatal("second build in the same directory did not resume")
	}
	if info2.SkippedEnvelopes+info2.ReplayedRecords == 0 {
		t.Fatalf("resume neither skipped nor replayed anything: %+v", info2)
	}
	rerun, err := pipe2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byQ := make(map[Time]string, len(plain))
	for _, rep := range plain {
		byQ[rep.Q] = rep.Fingerprint()
	}
	for _, rep := range rerun {
		want, ok := byQ[rep.Q]
		if !ok {
			t.Errorf("resumed run invented q=%d", int64(rep.Q))
			continue
		}
		if got := rep.Fingerprint(); got != want {
			t.Errorf("resumed q=%d diverged:\n  resumed: %s\n  plain:   %s", int64(rep.Q), got, want)
		}
	}
}

// TestDurableRejectsUnsupportedSystems pins the preconditions: a
// crowdsourcing-enabled system and a missing directory must refuse to
// build a durable pipeline instead of corrupting recovery semantics.
func TestDurableRejectsUnsupportedSystems(t *testing.T) {
	city := testCity(t)
	cfg := durableConfig(city)
	cfg.Participants = testParticipants(city, 4)
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.BuildDurablePipeline(7*3600, 8*3600, DurableOptions{Dir: t.TempDir()}); err == nil {
		t.Error("crowdsourcing-enabled system accepted")
	}

	sys = durableSystem(t, city)
	if _, _, err := sys.BuildDurablePipeline(7*3600, 8*3600, DurableOptions{}); err == nil {
		t.Error("empty Dir accepted")
	}
}

// TestCrashEquivalence is the durability gate: a campaign of injected
// kills — torn WAL records at 20+ points across the window, torn,
// post-rename-corrupted and after-rename checkpoint crashes, and a
// combined torn-checkpoint-plus-torn-tail epoch — after which the
// union of everything the crashing runs emitted must fingerprint
// bit-identically to one uninterrupted run.
func TestCrashEquivalence(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city, err := dublin.NewCity(dublin.Config{
		Seed:             42,
		NumBuses:         24,
		NumSensors:       24,
		Hotspots:         8,
		NoisyBusFraction: 0.25,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCrashCampaign(context.Background(), CampaignOptions{
		// A finer step halves the batch span cap, roughly doubling the
		// number of WAL records in the window — enough that 20 kill
		// epochs (each of which must durably advance past at least one
		// record) can spread across the log without exhausting it.
		NewSystem: func() (*System, error) {
			cfg := durableConfig(city)
			cfg.Step = 450
			return New(cfg)
		},
		From:  from,
		Until: until,
		Dir:   t.TempDir(),
		Kills: 20,
		Seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mismatches) > 0 {
		t.Errorf("crash equivalence violated (%d divergences):\n%s",
			len(res.Mismatches), strings.Join(res.Mismatches, "\n"))
	}
	if !res.Completed {
		t.Error("campaign never completed")
	}
	if res.WALKills < 20 {
		t.Errorf("WAL kills = %d, want >= 20", res.WALKills)
	}
	if res.TornCheckpoints < 1 || res.AfterCheckpoints < 1 || res.CorruptCheckpoints < 1 {
		t.Errorf("checkpoint crash modes = torn %d / after %d / corrupt %d, want >= 1 each",
			res.TornCheckpoints, res.AfterCheckpoints, res.CorruptCheckpoints)
	}
	if res.CombinedEpochs < 1 {
		t.Error("no combined torn-checkpoint + torn-tail epoch ran")
	}
	if res.BaselineRecords < 50 {
		t.Errorf("baseline appended only %d WAL records -- too few to spread 20 kills across", res.BaselineRecords)
	}

	// Incremental recovery: at least one resumed epoch must have
	// replayed a strict, non-empty subset of the log — recovery work is
	// proportional to the post-checkpoint tail, not the whole stream.
	incremental := false
	for i, ep := range res.Epochs {
		if ep.Recovery.Resumed && ep.Recovery.ReplayedRecords > 0 && ep.Recovery.ReplayedRecords < res.BaselineRecords {
			incremental = true
		}
		// The epoch after the combined crash must have seen both
		// artifacts: a torn WAL tail, with the torn checkpoint's temp
		// file ignored.
		if ep.Fault == "combined" && i+1 < len(res.Epochs) {
			if res.Epochs[i+1].Recovery.TornBytes == 0 {
				t.Error("recovery after the combined epoch saw no torn WAL tail")
			}
		}
	}
	if !incremental {
		t.Error("no epoch demonstrated incremental recovery (0 < replayed < total)")
	}

	// The corrupt-checkpoint epoch must have forced a later recovery
	// onto the CRC fallback path.
	sawCorruptFallback := false
	for _, ep := range res.Epochs {
		if ep.Recovery.CorruptCheckpoints > 0 {
			sawCorruptFallback = true
		}
	}
	if !sawCorruptFallback {
		t.Error("no recovery fell back past a corrupt checkpoint")
	}
}
