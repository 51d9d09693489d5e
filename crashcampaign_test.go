package insight

// Crash-equivalence campaign: the chaos harness behind the durability
// gate. One campaign is a kill → recover → resume loop over a single
// durable directory: every epoch builds a fresh System (the
// process-death model — nothing in memory survives), runs it on a
// faultFS armed with the epoch's one scripted fault, and lets the next
// epoch recover from whatever the disk holds. The gate property is that
// the union of reports emitted across all crashed epochs, deduplicated
// by query time (newest wins — report emission is at-least-once),
// fingerprints bit-identically to one uninterrupted run of the same
// window — and, with participants, that the last epoch's EM estimator
// equals the uninterrupted run's. Its participants answer as a function
// of the question (error probability 0 or 1): their simulated RNG is no
// system state a restarted process could resume, so a round a recovery
// asks again must get the answers the crashed epoch got.
//
// Failure schedule, a pure function of the seed:
//   - WAL kills: a tear of the epoch's second or third write to the log;
//   - then four checkpoint faults, each at the epoch's first checkpoint
//     for a boundary at or past a point further into the window: a
//     combined crash (a torn checkpoint whose death also leaves a torn
//     frame at the end of the log, so recovery faces both at once), a
//     rename followed by a corrupted file, a torn write, and a rename
//     followed by death;
//   - a clean epoch that must run to the end of the window.
//
// A fault keys to a count of storage calls or to a boundary, never to
// how far the appender got, and a death stops every goroutine's storage
// calls, the appender's included. Recovery checkpoints are checkpoints
// like any other, so an epoch that dies writing one, at the start of
// Pipeline.Run, died of its fault. Every fault therefore fires — a run that has not died
// writes a checkpoint for every boundary up to the end of the window —
// and an armed fault that does not fire fails the campaign. What still
// varies with the schedule is how far the appender runs ahead of the
// monitoring process before a death, so per-epoch replay volumes do.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"syscall"
	"testing"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/internal/vfs"
	"github.com/insight-dublin/insight/streams/wal"
)

// campaignOptions configures runCrashCampaign.
type campaignOptions struct {
	// newSystem builds a fresh System per epoch. Every call must yield an
	// identically configured system (same seeds, participants answering
	// as a function of the question).
	newSystem func() (*System, error)
	// from, until bound the SDE window.
	from, until Time
	// dir is the campaign root; the durable directory under test is
	// dir/epochs, the uninterrupted reference runs in dir/baseline.
	dir string
	// kills is the number of WAL kill epochs.
	kills int
	// seed draws the tear sizes.
	seed int64
}

// epochResult describes one campaign epoch.
type epochResult struct {
	// fault names the epoch's scripted fault: "wal-kill", "combined",
	// "ckpt-corrupt", "ckpt-torn", "ckpt-after" or "clean".
	fault string
	// fired is true when the fault acted.
	fired bool
	// recovery is what the durable build reported entering the epoch,
	// as far as it got.
	recovery RecoveryInfo
	// reports is the number of reports the epoch delivered to the
	// operator sink before dying (or finishing).
	reports int
	// completed is true when the epoch ran to the end of the window.
	completed bool
	// resumedQueries counts the participant answers the EM estimator of
	// the checkpoint the epoch resumed from had taken; ranQueries, those
	// of the epoch's estimator when it died or finished. An epoch that
	// resumes with fewer than its predecessor ran asks those rounds again.
	resumedQueries, ranQueries int
}

// campaignResult is the outcome of a crash-equivalence campaign.
type campaignResult struct {
	epochs []epochResult
	// baselineRecords is the number of WAL records one uninterrupted
	// run appends; an epoch with 0 < recovery.ReplayedRecords <
	// baselineRecords proves recovery is incremental.
	baselineRecords int
	// baseline maps query time to the uninterrupted run's campaignPrint.
	baseline map[Time]string
	// final maps query time to the newest crashed-run report.
	final map[Time]*Report
	// baselineEstimator and finalEstimator are the EM estimators of the
	// uninterrupted run and of the clean epoch.
	baselineEstimator, finalEstimator *crowd.Estimator
}

// campaignSchedule is the campaign's fault sequence. Corrupt comes
// first among the checkpoint faults so its poisoned checkpoint forces
// the next recoveries onto the CRC-fallback path; after-sync comes last
// so the clean epoch resumes from a durable checkpoint.
func campaignSchedule(kills int) []string {
	s := make([]string, 0, kills+5)
	for i := 0; i < kills; i++ {
		s = append(s, "wal-kill")
	}
	return append(s, "combined", "ckpt-corrupt", "ckpt-torn", "ckpt-after", "clean")
}

// campaignFault scripts epoch i's fault over the window [from, until).
func campaignFault(name string, i int, rng *rand.Rand, from, until Time) fault {
	// eighth(k) is k eighths into the window.
	eighth := func(k Time) Time { return from + (until-from)*k/8 }
	switch name {
	case "wal-kill":
		// The second or third write to the log, alternating: one or two
		// records of durable progress per kill once the segment exists
		// (epoch 0's first write is the new segment's header), so the
		// kills sweep forward through the record sequence without
		// outrunning it. The tear ranges from nothing written to the
		// whole frame (written but unacknowledged: replay owns it).
		return fault{op: opWrite, suffix: ".seg", n: 2 + i%2, act: actTear, k: rng.Int()}
	case "combined":
		return fault{op: opWrite, suffix: ".ck.tmp", minQ: eighth(4), n: 1, act: actTear, k: rng.Int(), tornTail: 1 + rng.Intn(256)}
	case "ckpt-corrupt":
		return fault{op: opRename, suffix: ".ck", minQ: eighth(5), n: 1, act: actCorrupt}
	case "ckpt-torn":
		return fault{op: opWrite, suffix: ".ck.tmp", minQ: eighth(6), n: 1, act: actTear, k: rng.Int()}
	case "ckpt-after":
		return fault{op: opRename, suffix: ".ck", minQ: eighth(7), n: 1, act: actDieAfter}
	}
	return fault{} // clean: acts at no call
}

// runCrashCampaign runs the baseline and the kill → recover → resume
// loop. It fails when an epoch dies of anything but its fault, when an
// armed fault does not fire, or when the clean epoch does not complete.
func runCrashCampaign(ctx context.Context, opts campaignOptions) (*campaignResult, error) {
	res := &campaignResult{
		baseline: make(map[Time]string),
		final:    make(map[Time]*Report),
	}

	// Uninterrupted reference run, on its own durable directory: same
	// code path, no faults.
	baseDir := filepath.Join(opts.dir, "baseline")
	sys, err := opts.newSystem()
	if err != nil {
		return nil, err
	}
	pipe, _, err := sys.Pipeline(opts.from, opts.until, PipelineOptions{Durable: &DurableOptions{Dir: baseDir}})
	if err != nil {
		return nil, err
	}
	baseline, err := pipe.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("campaign baseline run: %w", err)
	}
	for _, rep := range baseline {
		res.baseline[rep.Q] = campaignPrint(rep)
	}
	res.baselineEstimator = sys.Estimator()
	// The baseline consumed every envelope live, so its per-stream
	// consumption cursors add up to the total record count.
	for _, n := range pipe.proc.durable.consumed {
		res.baselineRecords += int(n)
	}

	epochDir := filepath.Join(opts.dir, "epochs")
	rng := rand.New(rand.NewSource(opts.seed))
	for i, name := range campaignSchedule(opts.kills) {
		fsys := &faultFS{f: campaignFault(name, i, rng, opts.from, opts.until)}
		sys, err := opts.newSystem()
		if err != nil {
			return nil, err
		}
		ep := epochResult{fault: name}
		// What the epoch's recovery will load, read beside its storage seam.
		if ck, err := sys.loadLatestCheckpoint(vfs.OS{}, epochDir, &RecoveryInfo{}); err != nil {
			return nil, err
		} else if ck != nil {
			ep.resumedQueries = answers(ck.estimator)
		}
		pipe, info, err := sys.Pipeline(opts.from, opts.until, PipelineOptions{Durable: &DurableOptions{Dir: epochDir, fs: fsys}})
		if info != nil {
			ep.recovery = *info
		}
		if err == nil {
			_, err = pipe.Run(ctx)
			// The collector survives the crash (the operator saw these
			// reports before the process died); newest epoch wins per Q.
			for _, it := range pipe.Reports.Items() {
				if rep, ok := it[itemReport].(*Report); ok {
					res.final[rep.Q] = rep
					ep.reports++
				}
			}
		}
		ep.fired, ep.completed = fsys.hasFired(), err == nil
		ep.ranQueries = answers(sys.Estimator())
		res.epochs = append(res.epochs, ep)
		res.finalEstimator = sys.Estimator()
		switch {
		case err != nil && !errors.Is(err, wal.ErrCrashPoint):
			return nil, fmt.Errorf("epoch %d (%s) died of a real failure, not its fault: %w", i, name, err)
		case name == "clean" && err != nil:
			return nil, fmt.Errorf("epoch %d (clean) did not complete: %w", i, err)
		case name != "clean" && !ep.fired:
			return nil, fmt.Errorf("epoch %d (%s) completed with its armed fault unfired", i, name)
		}
	}
	return res, nil
}

// campaignPrint is what the campaign holds a recovered report to: its
// fingerprint and the number of SDEs in its window — which a rebuild
// that lost a row, a crowd verdict included, changes even where
// recognition happens to come out the same.
func campaignPrint(rep *Report) string {
	return fmt.Sprintf("%s inWindow=%d", rep.Fingerprint(), rep.Stats.InputEvents)
}

// answers counts the participant answers an estimator has taken.
func answers(e *crowd.Estimator) int {
	n := 0
	for _, id := range e.Participants() {
		n += e.Queries(id)
	}
	return n
}

// mismatches lists every divergence between the crashed runs' union
// and the baseline: a query time missing, a fingerprint differing, or a
// query time the baseline never fired.
func (res *campaignResult) mismatches() []string {
	var out []string
	for q, want := range res.baseline {
		rep, ok := res.final[q]
		if !ok {
			out = append(out, fmt.Sprintf("q=%d: no report emitted by any epoch", int64(q)))
			continue
		}
		if got := campaignPrint(rep); got != want {
			out = append(out, fmt.Sprintf("q=%d: fingerprint diverged\n  crashed:  %s\n  baseline: %s", int64(q), got, want))
		}
	}
	for q := range res.final {
		if _, ok := res.baseline[q]; !ok {
			out = append(out, fmt.Sprintf("q=%d: crashed run invented a query time the baseline never fired", int64(q)))
		}
	}
	sort.Strings(out)
	return out
}

// TestCrashEquivalence is the durability gate: 20 torn WAL appends
// across the window, a combined torn-checkpoint-plus-torn-tail crash,
// a corrupted, a torn and a durable-then-killed checkpoint, then a clean
// run — after which the union of everything the crashing runs emitted
// must fingerprint bit-identically to one uninterrupted run. The fault
// schedule, and that each fault fired, is the same on every run. The
// crowd case runs the campaign with Figure 1's loop on, on a city that
// asks the crowd at every boundary: the clean epoch's EM estimator must
// equal the uninterrupted run's, and some epoch must resume from a
// checkpoint older than a round its predecessor ran.
func TestCrashEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name  string
		city  dublin.Config
		crowd bool
	}{
		{"crowdless", dublin.Config{Seed: 42, NumBuses: 24, NumSensors: 24, Hotspots: 8, NoisyBusFraction: 0.25}, false},
		{"crowd", dublin.Config{Seed: 42, NumBuses: 48, NumSensors: 48, Hotspots: 8, NoisyBusFraction: 0.5}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			city, err := dublin.NewCity(tc.city)
			if err != nil {
				t.Fatal(err)
			}
			var participants []SimParticipant
			if tc.crowd {
				// Every fourth always wrong, the rest always right: answers
				// fixed by the question, reliabilities EM tells apart.
				participants = testParticipants(city, 8)
				for i := range participants {
					participants[i].ErrorProb = 0
					if i%4 == 3 {
						participants[i].ErrorProb = 1
					}
				}
			}
			testCrashEquivalence(t, city, participants)
		})
	}
}

func testCrashEquivalence(t *testing.T, city *dublin.City, participants []SimParticipant) {
	const from, until = 7 * 3600, 8 * 3600
	const kills = 20
	res, err := runCrashCampaign(context.Background(), campaignOptions{
		// A finer step halves the batch span cap, roughly doubling the
		// number of WAL records in the window — room for 20 kill epochs,
		// each advancing the log by a record or two, with most of the
		// window left for the checkpoint faults.
		newSystem: func() (*System, error) {
			cfg := durableConfig(city)
			cfg.Step = 450
			cfg.Participants = participants
			return New(cfg)
		},
		from:  from,
		until: until,
		dir:   t.TempDir(),
		kills: kills,
		seed:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m := res.mismatches(); len(m) > 0 {
		t.Errorf("crash equivalence violated (%d divergences):\n%s", len(m), strings.Join(m, "\n"))
	}
	schedule := campaignSchedule(kills)
	if len(res.epochs) != len(schedule) {
		t.Fatalf("campaign ran %d epochs, its schedule has %d", len(res.epochs), len(schedule))
	}
	for i, ep := range res.epochs {
		r := ep.recovery
		t.Logf("epoch %2d %-12s fired %-5v | resumed q=%d, replayed %d, torn %d B, corrupt %d | %d reports",
			i, ep.fault, ep.fired, int64(r.CheckpointQ), r.ReplayedRecords, r.TornBytes, r.CorruptCheckpoints, ep.reports)
		if clean := schedule[i] == "clean"; ep.fault != schedule[i] || ep.fired == clean || ep.completed != clean {
			t.Errorf("epoch %d: fault %s fired %v completed %v, want %s fired %v completed %v",
				i, ep.fault, ep.fired, ep.completed, schedule[i], !clean, clean)
		}
	}
	if res.baselineRecords < 50 {
		t.Errorf("baseline appended only %d WAL records -- too few to spread %d kills across", res.baselineRecords, kills)
	}

	incremental, corruptFallback := false, false
	for i, ep := range res.epochs {
		// Incremental recovery: some resumed epoch replayed a strict,
		// non-empty part of the log.
		if ep.recovery.Resumed && ep.recovery.ReplayedRecords > 0 && ep.recovery.ReplayedRecords < res.baselineRecords {
			incremental = true
		}
		if ep.recovery.CorruptCheckpoints > 0 {
			corruptFallback = true
		}
		// The recovery after the combined crash truncated the torn tail
		// (the torn checkpoint's temp file is ignored).
		if ep.fault == "combined" && res.epochs[i+1].recovery.TornBytes == 0 {
			t.Error("recovery after the combined epoch saw no torn WAL tail")
		}
	}
	if !incremental {
		t.Error("no epoch demonstrated incremental recovery (0 < replayed < total)")
	}
	if !corruptFallback {
		t.Error("no recovery fell back past a corrupt checkpoint")
	}
	if participants == nil {
		return
	}

	rounds, asked := 0, 0
	for _, rep := range res.final {
		if rounds += len(rep.CrowdRounds); len(rep.CrowdRounds) > 0 {
			asked++
		}
	}
	if asked != len(res.baseline) {
		t.Errorf("%d of %d boundaries asked the crowd (%d rounds): the campaign does not fault every round", asked, len(res.baseline), rounds)
	}
	sameEstimator(t, "clean epoch vs uninterrupted run", res.finalEstimator, res.baselineEstimator)
	probs := make(map[float64]bool)
	for _, id := range res.baselineEstimator.Participants() {
		probs[res.baselineEstimator.ErrorProb(id)] = true
	}
	if len(probs) < 2 {
		t.Errorf("EM learned one reliability for every participant: %s", res.baselineEstimator)
	}
	reasked := false
	for i, ep := range res.epochs[1:] {
		if ep.recovery.Resumed && ep.resumedQueries < res.epochs[i].ranQueries {
			t.Logf("epoch %d resumed from %d answers, epoch %d had taken %d", i+1, ep.resumedQueries, i, res.epochs[i].ranQueries)
			reasked = true
		}
	}
	t.Logf("%d rounds on %d boundaries; %s", rounds, asked, res.baselineEstimator)
	if !reasked {
		t.Error("no epoch resumed from a checkpoint older than a round its predecessor ran: no round was asked again")
	}
}

// busyCity is a 400-bus, 400-sensor city: an hour of its input rolls
// the log past its first 1 MiB segment.
func busyCity(t *testing.T) *dublin.City {
	t.Helper()
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 400, NumSensors: 400, Hotspots: 15})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// TestRetentionFlatInRunLength: windowing makes recognition cost
// independent of history, and so must be the log the durable pipeline
// keeps and the rows recovery re-reads. On the busy city, the log a
// resume from the final checkpoint retains (its end minus the window
// offset) and the rows that resume rebuilds the working memory from
// after three hours stay within 1.5× of their value after one.
// UnpacedReplay is set because it is ignored: free-running sources let
// a stream run ahead, its rows stay pending in the log's first records
// and pin the window offset there, and both numbers grow with the run.
func TestRetentionFlatInRunLength(t *testing.T) {
	const from = 7 * 3600
	city := busyCity(t)
	measure := func(until Time) (retained int64, rebuilt int) {
		t.Helper()
		dir := t.TempDir()
		for resume := range 2 {
			cfg := durableConfig(city)
			cfg.UnpacedReplay = true
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			pipe, info, err := sys.Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
			if err != nil {
				t.Fatal(err)
			}
			if resume == 1 {
				if !info.Resumed {
					t.Fatalf("until %d: no checkpoint to resume from", int64(until))
				}
				retained, rebuilt = info.WALFrontier-pipe.proc.durable.st.front, info.RebuiltEvents
			}
			if _, err := pipe.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		}
		return retained, rebuilt
	}
	short, shortRows := measure(from + 3600)
	long, longRows := measure(from + 3*3600)
	t.Logf("retained log %d B after 1 h, %d B after 3 h; rebuilt rows %d, %d", short, long, shortRows, longRows)
	if 2*long > 3*short {
		t.Errorf("retained log grew %d → %d B from 1 h to 3 h, past 1.5×", short, long)
	}
	if 2*longRows > 3*shortRows {
		t.Errorf("rows rebuilt on resume grew %d → %d from 1 h to 3 h, past 1.5×", shortRows, longRows)
	}
}

// TestCheckpointRetentionKeepsLog: a recovery whose replay crosses no
// query boundary writes its checkpoint under the name of the one it
// loaded. While that is the only checkpoint, the log must keep the
// records before it: when the rewrite is corrupted, recovery falls back
// to a cold start from offset 0, which needs the whole log.
func TestCheckpointRetentionKeepsLog(t *testing.T) {
	// An hour per boundary on a 400-bus city: the log rolls past its
	// first 1 MiB segment before the first boundary.
	const from, until = 7 * 3600, 10 * 3600
	city := busyCity(t)
	newSystem := func() *System {
		cfg := durableConfig(city)
		cfg.WorkingMemory, cfg.Step = 3600, 3600
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	plain, _, err := newSystem().Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reps, err := plain.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	final := make(map[Time]string)
	checkpoints := func() []string {
		names, err := listCheckpoints(vfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		return names
	}
	var first []string
	for i, f := range []fault{
		// The log's 100th write tears: the records before it, over 1 MiB
		// and short of the first boundary, are durable; no checkpoint is.
		{op: opWrite, suffix: ".seg", n: 100, act: actTear},
		// Recovery replays them into the first checkpoint; the live run
		// makes one more record durable, then dies.
		{op: opWrite, suffix: ".seg", n: 2, act: actTear},
		// Recovery replays that record, crosses no boundary and rewrites
		// the checkpoint it loaded, corrupted as it is renamed.
		{op: opRename, suffix: ".ck", n: 1, act: actCorrupt},
		// No valid checkpoint is left: a cold start from offset 0.
		{},
	} {
		fsys := &faultFS{f: f}
		pipe, info, err := newSystem().Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir, fs: fsys}})
		if err == nil {
			_, err = pipe.Run(context.Background())
			for _, it := range pipe.Reports.Items() {
				rep := it[itemReport].(*Report)
				final[rep.Q] = rep.Fingerprint()
			}
		}
		clean := f == fault{}
		if clean && err != nil || !clean && !errors.Is(err, wal.ErrCrashPoint) || fsys.hasFired() == clean {
			t.Fatalf("epoch %d (%+v): fired %v, error %v", i, f, fsys.hasFired(), err)
		}
		switch i {
		case 0:
			segs, err := os.ReadDir(filepath.Join(dir, "wal"))
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 2 || len(checkpoints()) > 0 {
				t.Fatalf("first epoch left %d log segments and checkpoints %v, want a rolled log and none", len(segs), checkpoints())
			}
		case 1:
			first = checkpoints()
			if info.Resumed || len(first) != 1 {
				t.Fatalf("second epoch resumed %v and left checkpoints %v, want a cold start and one", info.Resumed, first)
			}
		case 2:
			q, _ := parseCheckpointName(first[0])
			if got := checkpoints(); info.CheckpointQ != q || !slices.Equal(got, first) {
				t.Fatalf("third epoch resumed q=%d and left %v, want %v rewritten", int64(info.CheckpointQ), got, first)
			}
		case 3:
			if info.Resumed || info.CorruptCheckpoints != 1 {
				t.Errorf("last epoch resumed %v past %d corrupt checkpoints, want a cold start past one", info.Resumed, info.CorruptCheckpoints)
			}
		}
	}
	for _, rep := range reps {
		if want := rep.Fingerprint(); final[rep.Q] != want {
			t.Errorf("q=%d: union %q, want %q", int64(rep.Q), final[rep.Q], want)
		}
	}
}

// TestRecoveryCheckpointKilled: Pipeline.Run delivers the reports a
// recovery re-fired before it writes the recovery checkpoint. A first
// run that never checkpoints is cancelled at its second report; the
// second recovers by replaying the whole log, delivers every re-fired
// boundary and dies tearing its recovery checkpoint; the third recovers
// the same way, delivers every re-fired boundary again and runs to the
// end. The newest report per query time over the three is the plain
// run's.
func TestRecoveryCheckpointKilled(t *testing.T) {
	const from, until, k = 7 * 3600, 8 * 3600, 2
	city := testCity(t)
	plain := plainFingerprints(t, durableSystem(t, city), from, until)
	dir := t.TempDir()
	newest := make(map[Time]string, len(plain))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first []Time
	pipe, _, err := durableSystem(t, city).Pipeline(from, until, PipelineOptions{
		Durable: &DurableOptions{Dir: dir, CheckpointEvery: 1 << 30},
		OnReport: func(rep *Report) error {
			if first = append(first, rep.Q); len(first) == k {
				cancel()
			}
			newest[rep.Q] = rep.Fingerprint()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pipe.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("first run: err = %v, want it cancelled", err)
	}
	for i, f := range []fault{{op: opWrite, suffix: ".ck.tmp", n: 1, act: actTear, k: 4096}, {}} {
		fsys := &faultFS{f: f}
		pipe, info, err := durableSystem(t, city).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir, CheckpointEvery: 1 << 30, fs: fsys}})
		if err != nil {
			t.Fatal(err)
		}
		refired := len(pipe.proc.due)
		if info.Resumed || info.ReplayedRecords == 0 || refired < k {
			t.Fatalf("recovery %d re-fired %d boundaries, RecoveryInfo %+v: want a replay of the whole log re-firing at least %d", i+1, refired, *info, k)
		}
		t.Logf("recovery %d: replayed %d records, re-fired %d of %d boundaries", i+1, info.ReplayedRecords, refired, len(plain))
		_, err = pipe.Run(context.Background())
		clean := f == fault{}
		if clean && err != nil || !clean && !errors.Is(err, wal.ErrCrashPoint) || fsys.hasFired() == clean {
			t.Fatalf("recovery %d (%+v): fired %v, error %v", i+1, f, fsys.hasFired(), err)
		}
		delivered := make(map[Time]bool)
		for _, it := range pipe.Reports.Items() {
			rep := it[itemReport].(*Report)
			delivered[rep.Q] = true
			newest[rep.Q] = rep.Fingerprint()
		}
		if !clean && len(delivered) != refired {
			t.Errorf("killed recovery delivered %d reports, re-fired %d: the topology ran or a re-fired report was lost", len(delivered), refired)
		}
		for _, q := range first {
			if !delivered[q] {
				t.Errorf("recovery %d did not deliver re-fired q=%d", i+1, int64(q))
			}
		}
	}
	if len(newest) != len(plain) {
		t.Errorf("the runs delivered %d query times, the plain run %d", len(newest), len(plain))
	}
	for q, want := range plain {
		if newest[q] != want {
			t.Errorf("q=%d: newest %q, want %q", int64(q), newest[q], want)
		}
	}
}

// TestStorageErrors: an I/O error is not a crash. A full disk under a
// WAL frame write, a failed WAL fsync, segment roll, tail truncation or
// segment removal, and a failed checkpoint create, rename, removal or
// directory listing each end the durable build or Run with that
// error, not wal.ErrCrashPoint; every report the operator sink received
// before it is the uninterrupted run's; and a rerun on the same
// directory once storage is healthy completes, its reports and the
// failed run's together (newest wins) equal to the uninterrupted run.
func TestStorageErrors(t *testing.T) {
	const from = 7 * 3600
	// The busy city's two hours of input roll the log past its first
	// 1 MiB segment, which checkpoint GC then removes.
	cities := map[bool]*dublin.City{false: testCity(t), true: busyCity(t)}
	untils := map[bool]Time{false: 8 * 3600, true: 9 * 3600}
	system := func(rolls bool) *System {
		t.Helper()
		sys, err := New(durableConfig(cities[rolls]))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	baselines := make(map[bool]map[Time]string)
	for rolls := range cities {
		plain, _, err := system(rolls).Pipeline(from, untils[rolls], PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := plain.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		baselines[rolls] = make(map[Time]string, len(reps))
		for _, rep := range reps {
			baselines[rolls][rep.Q] = rep.Fingerprint()
		}
	}
	for _, tc := range []struct {
		name  string
		rolls bool  // on the busy city
		crash fault // a first run dies of this, leaving the directory to the failing one
		f     fault
	}{
		// Write 1 is the new segment's header, sync 1 its fsync.
		{name: "wal-write-enospc", f: fault{op: opWrite, suffix: ".seg", n: 8, act: actFail, k: 5, err: syscall.ENOSPC}},
		{name: "wal-fsync-eio", f: fault{op: opSync, suffix: ".seg", n: 8, act: actFail, err: syscall.EIO}},
		// Open 1 creates the first segment.
		{name: "wal-roll-open-eio", rolls: true, f: fault{op: opOpen, suffix: ".seg", n: 2, act: actFail, err: syscall.EIO}},
		{name: "wal-torn-tail-truncate-eio",
			crash: fault{op: opWrite, suffix: ".seg", n: 8, act: actTear, tornTail: 64},
			f:     fault{op: opTruncate, suffix: ".seg", n: 1, act: actFail, err: syscall.EIO}},
		{name: "wal-gc-remove-eio", rolls: true, f: fault{op: opRemove, suffix: ".seg", n: 1, act: actFail, err: syscall.EIO}},
		{name: "ckpt-create-eio", f: fault{op: opOpen, suffix: ".ck.tmp", n: 2, act: actFail, err: syscall.EIO}},
		{name: "ckpt-rename-eio", f: fault{op: opRename, suffix: ".ck", n: 2, act: actFail, err: syscall.EIO}},
		// The third checkpoint's GC removes the first.
		{name: "ckpt-gc-remove-eio", f: fault{op: opRemove, suffix: ".ck", n: 1, act: actFail, err: syscall.EIO}},
		// Listings 1 and 2 are recovery's (log, then checkpoints), 3 the
		// first checkpoint's GC.
		{name: "ckpt-gc-readdir-eio", f: fault{op: opReadDir, n: 3, act: actFail, err: syscall.EIO}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			until, baseline := untils[tc.rolls], baselines[tc.rolls]
			dir := t.TempDir()
			final := make(map[Time]string, len(baseline))
			// collect holds every report the operator sink received to the
			// uninterrupted run's.
			collect := func(pipe *Pipeline) {
				for _, it := range pipe.Reports.Items() {
					rep := it[itemReport].(*Report)
					if got := rep.Fingerprint(); got != baseline[rep.Q] {
						t.Errorf("q=%d received before the failure diverged:\n  got:  %s\n  want: %s", int64(rep.Q), got, baseline[rep.Q])
					}
					final[rep.Q] = rep.Fingerprint()
				}
			}
			if tc.crash != (fault{}) {
				pipe, _, err := system(tc.rolls).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir, fs: &faultFS{f: tc.crash}}})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pipe.Run(context.Background()); !errors.Is(err, wal.ErrCrashPoint) {
					t.Fatalf("crashing run returned %v, want a crash point", err)
				}
				collect(pipe)
			}
			fsys := &faultFS{f: tc.f}
			pipe, _, err := system(tc.rolls).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir, fs: fsys}})
			if err == nil {
				_, err = pipe.Run(context.Background())
				collect(pipe)
			}
			if !fsys.hasFired() {
				t.Fatal("the scripted error never fired")
			}
			if !errors.Is(err, tc.f.err) || errors.Is(err, wal.ErrCrashPoint) {
				t.Fatalf("the failing run returned %v, want %v and no crash point", err, tc.f.err)
			}
			pipe, _, err = system(tc.rolls).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
			if err != nil {
				t.Fatalf("recovery on healthy storage: %v", err)
			}
			rerun, err := pipe.Run(context.Background())
			if err != nil {
				t.Fatalf("rerun on healthy storage: %v", err)
			}
			for _, rep := range rerun {
				final[rep.Q] = rep.Fingerprint()
			}
			if len(final) != len(baseline) {
				t.Errorf("the runs reported %d query times, the uninterrupted run %d", len(final), len(baseline))
			}
			for q, want := range baseline {
				if final[q] != want {
					t.Errorf("q=%d: union %q, want %q", int64(q), final[q], want)
				}
			}
		})
	}
}
