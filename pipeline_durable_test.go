package insight

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// durableConfig is the system configuration durable runs use in these
// tests: crowdless unless a test adds participants, with a strict
// watermark (no degradation possible, so recognition output is a pure
// function of the SDE collection and, with participants, of their
// answers, whatever the sources' interleaving within the pacer's
// slack).
func durableConfig(city *dublin.City) Config {
	return Config{
		City:          city,
		Seed:          7,
		WorkingMemory: 1800,
		Step:          900,
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

// sameEstimator fails unless two estimators hold the same participants
// with bit-identical error probabilities and equal query counts.
func sameEstimator(t *testing.T, label string, got, want *crowd.Estimator) {
	t.Helper()
	g, err := got.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	w, err := want.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("%s: estimator diverged:\n  got:  %s\n  want: %s", label, got, want)
	}
}

// TestDurableMatchesPlain: the durable pipeline — WAL, checkpoints and
// all — must recognise exactly what the plain pipeline recognises, and
// must not leak transport buffers. With noisy participants on either
// tier it asks the crowd exactly what the plain pipeline asks: reports
// and the EM estimator equal.
func TestDurableMatchesPlain(t *testing.T) {
	city := testCity(t)
	crowdOn := func(shards int) func(*Config) {
		return func(cfg *Config) {
			cfg.Shards = shards
			cfg.Participants = testParticipants(city, 8)
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(*Config)
	}{
		{"crowdless", func(*Config) {}},
		{"crowd/partitions", crowdOn(0)},
		{"crowd/shards=2", crowdOn(2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testDurableMatchesPlain(t, func() *System {
				cfg := durableConfig(city)
				tc.setup(&cfg)
				sys, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			})
		})
	}
	// Interrupted through OnReport — the run cancelled after its second
	// report, or the second OnReport failing — and restarted on the same
	// directory. Crowdless: a re-asked round draws fresh answers from
	// the simulated participants, whose state no checkpoint holds.
	for _, tc := range []struct {
		name string
		fail bool
	}{{"onreport/cancelled", false}, {"onreport/failed", true}} {
		t.Run(tc.name, func(t *testing.T) {
			testDurableOnReportRestart(t, func() *System { return durableSystem(t, city) }, tc.fail)
		})
	}
}

// errOnReport is the scripted OnReport failure.
var errOnReport = errors.New("operator unavailable")

// testDurableOnReportRestart stops a durable OnReport run at its second
// report — cancelling the run from inside OnReport, or failing that
// OnReport — restarts it on the same directory, and holds the newest
// report per query time across both runs to the plain run's. A report
// whose OnReport failed must come again after the restart.
func testDurableOnReportRestart(t *testing.T, newSystem func() *System, fail bool) {
	const from, until, k = 7 * 3600, 8 * 3600, 2
	plain := plainFingerprints(t, newSystem(), from, until)
	dir := t.TempDir()
	newest := make(map[Time]string, len(plain))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	failed, n := Time(-1), 0
	pipe, _, err := newSystem().Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}, OnReport: func(rep *Report) error {
		if n++; n == k {
			if fail {
				failed = rep.Q
				return errOnReport
			}
			cancel()
		}
		newest[rep.Q] = rep.Fingerprint()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := context.Canceled
	if fail {
		want = errOnReport
	}
	if _, err := pipe.Run(ctx); !errors.Is(err, want) {
		t.Fatalf("interrupted run: err = %v, want %v", err, want)
	}

	redelivered := false
	pipe, info, err := newSystem().Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}, OnReport: func(rep *Report) error {
		redelivered = redelivered || rep.Q == failed
		newest[rep.Q] = rep.Fingerprint()
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("restart: %+v", *info)
	if _, err := pipe.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if fail && !redelivered {
		t.Errorf("q=%d failed in OnReport and was not delivered after the restart", int64(failed))
	}
	if len(newest) != len(plain) {
		t.Errorf("interrupted and restarted runs delivered %d query times, plain %d", len(newest), len(plain))
	}
	for q, want := range plain {
		if got := newest[q]; got != want {
			t.Errorf("q=%d diverged:\n  restarted: %s\n  plain:     %s", int64(q), got, want)
		}
	}
}

// plainFingerprints runs the plain pipeline and returns each report's
// fingerprint by query time.
func plainFingerprints(t *testing.T, sys *System, from, until Time) map[Time]string {
	t.Helper()
	pipe, _, err := sys.Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byQ := make(map[Time]string, len(reps))
	for _, rep := range reps {
		byQ[rep.Q] = rep.Fingerprint()
	}
	return byQ
}

func testDurableMatchesPlain(t *testing.T, newSystem func() *System) {
	const from, until = 7 * 3600, 8 * 3600
	plainSys := newSystem()
	plainPipe, _, err := plainSys.Pipeline(from, until, PipelineOptions{})
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
	rounds := 0
	for _, rep := range plain {
		rounds += len(rep.CrowdRounds)
	}
	t.Logf("%d reports, %d crowd rounds", len(plain), rounds)
	if asks := plainSys.qeeEngine != nil; asks != (rounds > 0) {
		t.Fatalf("plain run asked the crowd %d times with participants %v", rounds, asks)
	}

	dir := t.TempDir()
	before := streams.LiveBatches()
	durableSys := newSystem()
	pipe, info, err := durableSys.Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
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
	sameEstimator(t, "durable vs plain", durableSys.Estimator(), plainSys.Estimator())

	// Driven through OnReport instead of the collector: the same reports,
	// in boundary order.
	var delivered []*Report
	onReportSys := newSystem()
	if err := runToEnd(context.Background())(onReportSys.Pipeline(from, until, PipelineOptions{
		Durable:  &DurableOptions{Dir: t.TempDir()},
		OnReport: func(rep *Report) error { delivered = append(delivered, rep); return nil },
	})); err != nil {
		t.Fatal(err)
	}
	if len(delivered) != len(plain) {
		t.Fatalf("durable OnReport run delivered %d reports, plain fired %d", len(delivered), len(plain))
	}
	for i := range plain {
		if g, w := delivered[i].Fingerprint(), plain[i].Fingerprint(); g != w {
			t.Errorf("OnReport q=%d diverged:\n  durable: %s\n  plain:   %s", int64(plain[i].Q), g, w)
		}
	}
	sameEstimator(t, "durable OnReport vs plain", onReportSys.Estimator(), plainSys.Estimator())

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
	resumedSys := newSystem()
	pipe2, info2, err := resumedSys.Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
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
	sameEstimator(t, "resumed vs plain", resumedSys.Estimator(), plainSys.Estimator())
}

// TestDurableRejectsUnsupportedSystems pins the preconditions: a
// missing directory, a chaos stream fault and injected input errors
// each refuse to build a durable pipeline — recovery skips the
// envelopes its cursors count, which an injector that drops or
// duplicates envelopes would break.
func TestDurableRejectsUnsupportedSystems(t *testing.T) {
	sys := durableSystem(t, testCity(t))
	for _, tc := range []struct {
		name, want string
		opt        PipelineOptions
	}{
		{"empty Dir", "Dir is required", PipelineOptions{Durable: &DurableOptions{}}},
		{"stream fault", "chaos", PipelineOptions{Durable: &DurableOptions{Dir: t.TempDir()}, Chaos: map[string]streams.FaultSpec{"bus": {Seed: 1, DropProb: 0.1}}}},
		{"input errors", "chaos", PipelineOptions{Durable: &DurableOptions{Dir: t.TempDir()}, Chaos: map[string]streams.FaultSpec{"bus": {Seed: 1, ErrProb: 0.1}}}},
	} {
		if _, _, err := sys.Pipeline(7*3600, 8*3600, tc.opt); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", tc.name, err, tc.want)
		}
	}
}
