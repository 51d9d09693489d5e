package insight

// Crash-equivalence campaign: the chaos harness behind the durability
// gate (TestCrashEquivalence) and cmd/crashbench. One campaign is a
// kill → recover → resume loop over a single durable directory:
// every epoch builds a fresh System (the process-death model — nothing
// in memory survives), arms one injected failure, runs until the crash
// point fires, and lets the next epoch recover from whatever the disk
// holds. The gate property is that the union of reports emitted across
// all crashed epochs, deduplicated by query time (newest wins — report
// emission is at-least-once), fingerprints bit-identically to one
// uninterrupted run of the same window.
//
// Failure schedule. The campaign interleaves three failure families
// until its quotas are met, then runs clean to completion:
//   - WAL kills: a wal.Failpoint that tears the log mid-record once
//     appends pass an adaptive target offset, placed so every epoch
//     makes at least one full record of progress (no livelock) and the
//     kills spread across the whole window;
//   - checkpoint crashes: CrashTornCheckpoint / CrashAfterCheckpoint /
//     CrashCorruptCheckpoint on the first checkpoint write of the
//     epoch, cycling so each mode fires at least once;
//   - a combined epoch: a torn checkpoint followed by a post-mortem
//     torn WAL tail, so recovery faces both artifacts in one pass.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"github.com/insight-dublin/insight/streams/wal"
)

// CampaignOptions configures RunCrashCampaign.
type CampaignOptions struct {
	// NewSystem builds a fresh System per epoch. It must be
	// deterministic: every call must yield an identically configured
	// system (same seeds, no participants).
	NewSystem func() (*System, error)
	// From, Until bound the SDE window.
	From, Until Time
	// Dir is the campaign root; the durable directory under test is
	// Dir/epochs, the uninterrupted reference runs in Dir/baseline.
	Dir string
	// CheckpointEvery forwards to DurableOptions (default 1).
	CheckpointEvery int
	// Kills is the minimum number of WAL crash points to fire before
	// the campaign may complete (default 20).
	Kills int
	// Seed drives tear-size sampling.
	Seed int64
	// MaxEpochs aborts a campaign that stops making progress (default
	// 3*Kills + 24).
	MaxEpochs int
}

// EpochResult describes one campaign epoch.
type EpochResult struct {
	// Fault names the injected failure: "wal-kill", "ckpt-torn",
	// "ckpt-after", "ckpt-corrupt", "combined", or "clean".
	Fault string
	// Recovery is what BuildDurablePipeline reported entering the epoch.
	Recovery RecoveryInfo
	// RecoveryMillis is the wall time of BuildDurablePipeline — load
	// checkpoint, restore engines, replay the log tail.
	RecoveryMillis float64
	// Reports is the number of reports the epoch delivered to the
	// operator sink before dying (or finishing).
	Reports int
	// Completed is true when the epoch ran to the end of the window.
	Completed bool
}

// CampaignResult is the outcome of a crash-equivalence campaign.
type CampaignResult struct {
	Completed bool
	Epochs    []EpochResult
	// WALKills, TornCheckpoints, AfterCheckpoints, CorruptCheckpoints
	// and CombinedEpochs count the injected failures by family.
	WALKills           int
	TornCheckpoints    int
	AfterCheckpoints   int
	CorruptCheckpoints int
	CombinedEpochs     int
	// BaselineRecords is the number of WAL records one uninterrupted
	// run appends; an epoch with 0 < Recovery.ReplayedRecords <
	// BaselineRecords proves recovery is incremental.
	BaselineRecords int
	// Baseline maps query time to the uninterrupted run's fingerprint.
	Baseline map[Time]string
	// Final maps query time to the newest crashed-run report
	// (at-least-once emission deduplicated, newest epoch wins).
	Final map[Time]*Report
	// Mismatches lists every divergence between Final and Baseline,
	// empty on a passing campaign.
	Mismatches []string
}

// campaignFailpoint arms one WAL kill: the epoch's killN-th append
// dies. Counting appends rather than byte offsets keeps the campaign
// schedule-independent — however the source streams happen to merge
// into the appender, every kill epoch durably advances the log by
// killN-1 records, so the kill points sweep forward through the
// record sequence without ever outrunning it (no livelock, no
// premature exhaustion). killN must be at least 2: the first append
// always lands, which is what guarantees forward progress.
func campaignFailpoint(killN int, tearSalt int64, kills *int) wal.Failpoint {
	seen := 0
	return func(start int64, frameLen int) (tear int, kill bool) {
		seen++
		if seen < killN {
			return 0, false
		}
		*kills++
		// Tear size is a deterministic function of the pre-drawn salt and
		// the frame length: anywhere from nothing written to the full
		// frame (written then unacknowledged — the replay-owns-it case).
		return int(tearSalt % int64(frameLen+1)), true
	}
}

// RunCrashCampaign runs the baseline and the kill → recover → resume
// loop, verifying crash equivalence as it goes.
func RunCrashCampaign(ctx context.Context, opts CampaignOptions) (*CampaignResult, error) {
	if opts.Kills <= 0 {
		opts.Kills = 20
	}
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 1
	}
	if opts.MaxEpochs <= 0 {
		opts.MaxEpochs = 3*opts.Kills + 24
	}
	res := &CampaignResult{
		Baseline: make(map[Time]string),
		Final:    make(map[Time]*Report),
	}

	// Uninterrupted reference run, on its own durable directory: same
	// code path, no failpoints.
	baseDir := filepath.Join(opts.Dir, "baseline")
	sys, err := opts.NewSystem()
	if err != nil {
		return nil, err
	}
	pipe, info, err := sys.BuildDurablePipeline(opts.From, opts.Until, DurableOptions{
		Dir: baseDir, CheckpointEvery: opts.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	if info.Resumed {
		return nil, fmt.Errorf("insight: campaign baseline directory %s is not fresh", baseDir)
	}
	baseline, err := pipe.Run(ctx)
	if err != nil {
		return nil, fmt.Errorf("insight: campaign baseline run: %w", err)
	}
	for _, rep := range baseline {
		res.Baseline[rep.Q] = rep.Fingerprint()
	}
	// The baseline consumed every envelope live, so its consumption
	// counter is the total record count (it survives the log's close).
	res.BaselineRecords = pipe.durable.consumedIdx
	if res.BaselineRecords == 0 {
		return nil, fmt.Errorf("insight: campaign baseline appended no WAL records")
	}

	// The kill → recover → resume loop over one durable directory.
	epochDir := filepath.Join(opts.Dir, "epochs")
	rng := rand.New(rand.NewSource(opts.Seed))
	ckptModes := []struct {
		fault string
		crash CheckpointCrash
	}{
		// Corrupt first: its poisoned checkpoint forces the next two
		// recoveries onto the CRC-fallback path, and running it early —
		// while replay still re-accumulates unfired boundaries — makes
		// sure a live checkpoint write (the crash point) always happens.
		// After-rename runs last so the clean epoch resumes from the
		// newest durable checkpoint.
		{"ckpt-corrupt", CrashCorruptCheckpoint},
		{"ckpt-torn", CrashTornCheckpoint},
		{"ckpt-after", CrashAfterCheckpoint},
	}
	ckptIdx := 0
	combinedDone := false
	for len(res.Epochs) < opts.MaxEpochs {
		// Pick this epoch's failure. Order matters: WAL kills must all
		// run first, because the appender is only throttled by its own
		// crash point — any epoch whose monitoring process dies at a
		// checkpoint lets the appender flood the rest of the stream into
		// the log, after which there is nothing left to kill an append
		// over. The combined epoch then runs while a torn tail is still
		// meaningful (the last record above every durable checkpoint),
		// followed by the remaining checkpoint crash modes, then clean.
		var fault string
		switch {
		case res.WALKills < opts.Kills:
			fault = "wal-kill"
		case !combinedDone:
			fault = "combined"
		case ckptIdx < len(ckptModes):
			fault = ckptModes[ckptIdx].fault
		default:
			fault = "clean"
		}

		d := DurableOptions{Dir: epochDir, CheckpointEvery: opts.CheckpointEvery}
		switch fault {
		case "wal-kill":
			// Alternate killing the second and third append of the epoch:
			// one to two records of durable progress per kill, so the
			// kill quota always fits inside the record sequence with
			// room to spare while still sweeping forward through it.
			d.WALFailpoint = campaignFailpoint(2+len(res.Epochs)%2, rng.Int63(), &res.WALKills)
		case "combined", "ckpt-torn", "ckpt-after", "ckpt-corrupt":
			crash := CrashTornCheckpoint
			if fault != "combined" {
				crash = ckptModes[ckptIdx].crash
			}
			armed := false
			d.CheckpointFailpoint = func(q Time) CheckpointCrash {
				if armed {
					return CrashNone
				}
				armed = true
				return crash
			}
		}

		sys, err := opts.NewSystem()
		if err != nil {
			return nil, err
		}
		//lint:allow nodeterminism recovery timing feeds only the benchmark report, never a result
		t0 := time.Now()
		pipe, info, err := sys.BuildDurablePipeline(opts.From, opts.Until, d)
		if err != nil {
			return nil, fmt.Errorf("insight: epoch %d (%s) recovery: %w", len(res.Epochs), fault, err)
		}
		recoveryMillis := float64(time.Since(t0)) / float64(time.Millisecond)
		_, runErr := pipe.Run(ctx)
		// The collector survives the crash (the "operator" saw these
		// reports before the process died); newest epoch wins per Q.
		emitted := 0
		for _, it := range pipe.Reports.Items() {
			if rep, ok := it[itemReport].(*Report); ok {
				res.Final[rep.Q] = rep
				emitted++
			}
		}
		ep := EpochResult{
			Fault:          fault,
			Recovery:       *info,
			RecoveryMillis: recoveryMillis,
			Reports:        emitted,
			Completed:      runErr == nil,
		}
		res.Epochs = append(res.Epochs, ep)

		if runErr != nil {
			if !errors.Is(runErr, wal.ErrCrashPoint) {
				return nil, fmt.Errorf("insight: epoch %d (%s) died of a real failure, not an injected crash: %w",
					len(res.Epochs)-1, fault, runErr)
			}
			switch fault {
			case "ckpt-torn":
				res.TornCheckpoints++
				ckptIdx++
			case "ckpt-after":
				res.AfterCheckpoints++
				ckptIdx++
			case "ckpt-corrupt":
				res.CorruptCheckpoints++
				ckptIdx++
			case "combined":
				res.TornCheckpoints++
				if err := tearEpochTail(epochDir, rng.Int63n(256)+1); err != nil {
					return nil, err
				}
				res.CombinedEpochs++
				combinedDone = true
			}
			continue
		}
		res.Completed = true
		break
	}
	if !res.Completed {
		return nil, fmt.Errorf("insight: campaign did not complete within %d epochs (%d/%d WAL kills)",
			opts.MaxEpochs, res.WALKills, opts.Kills)
	}

	// Crash equivalence: every baseline query time must be present with
	// a bit-identical fingerprint, and no extra query times may appear.
	qs := make([]Time, 0, len(res.Baseline))
	for q := range res.Baseline {
		qs = append(qs, q)
	}
	sort.Slice(qs, func(i, j int) bool { return qs[i] < qs[j] })
	for _, q := range qs {
		rep, ok := res.Final[q]
		if !ok {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("q=%d: no report emitted by any epoch", int64(q)))
			continue
		}
		if got := rep.Fingerprint(); got != res.Baseline[q] {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("q=%d: fingerprint diverged\n  crashed:  %s\n  baseline: %s",
				int64(q), got, res.Baseline[q]))
		}
	}
	for q := range res.Final {
		if _, ok := res.Baseline[q]; !ok {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf("q=%d: crashed run invented a query time the baseline never fired", int64(q)))
		}
	}
	sort.Strings(res.Mismatches)
	return res, nil
}

// tearEpochTail is the combined epoch's post-mortem bite: after the
// torn-checkpoint crash, tear up to n bytes off the WAL's last record
// too, so the next recovery faces a torn checkpoint and a torn log
// tail at once. Skipped when the last record lies at or below the
// newest valid checkpoint's offset — offsets below the replay start
// must stay immutable or the log would rewind under the checkpoint.
func tearEpochTail(dir string, n int64) error {
	ck, err := loadLatestCheckpoint(dir, &RecoveryInfo{})
	if err != nil {
		return err
	}
	log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
	if err != nil {
		return err
	}
	if log.LastStart() >= 0 && (ck == nil || log.LastStart() >= ck.walOffset) {
		if err := log.TearTail(n); err != nil {
			return errors.Join(err, log.Close())
		}
	}
	return log.Close()
}
