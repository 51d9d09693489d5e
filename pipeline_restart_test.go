package insight

import (
	"context"
	"testing"
	"time"

	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// restartSystem builds a paced, crowdless system with the
// watermark staleness bound armed. Pacing matters: the pacer keeps
// every stream within Step/2 = 450 s of virtual time of the slowest
// one, so a stream whose input process is busy retrying can never
// trail the pack by more than the slack — strictly inside the 1800 s
// staleness bound. Degradation under mere retries is therefore
// impossible by construction, not by timing luck, and the test below
// can demand it.
func restartSystem(t *testing.T) *System {
	t.Helper()
	sys, err := New(Config{
		City:               testCity(t),
		Seed:               7,
		WorkingMemory:      1800,
		Step:               900,
		WatermarkStaleness: 1800,
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

// TestPipelineRestartLiveness is the supervised-restart half of the
// liveness contract: with every input validator failing a quarter of
// its envelopes and a Restart policy retrying them, the watermark
// machinery must ride through the restarts — every stream re-enters
// the watermark minimum after each retry, no report flags degradation,
// nothing is dead-lettered, and recognition output stays bit-identical
// to the fault-free run.
func TestPipelineRestartLiveness(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600

	basePipe, _, err := restartSystem(t).Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	baseline, err := basePipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(baseline) == 0 {
		t.Fatal("baseline produced no reports")
	}

	chaosPipe, _, err := restartSystem(t).Pipeline(from, until, PipelineOptions{Chaos: ChaosConfig{
		InputErrProb: 0.25,
		Seed:         99,
	}})
	if err != nil {
		t.Fatal(err)
	}
	restart := streams.SupervisionPolicy{
		Strategy: streams.Restart,
		Retry: streams.RetryPolicy{
			MaxAttempts: 12,
			BaseDelay:   time.Millisecond,
			MaxDelay:    time.Millisecond,
			Multiplier:  1,
		},
		OnExhausted: streams.Escalate,
	}
	for _, id := range []string{"bus", "scats-central", "scats-north", "scats-west", "scats-south"} {
		if err := chaosPipe.Topology.Supervise("input-"+id, restart); err != nil {
			t.Fatal(err)
		}
	}
	reports, err := chaosPipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical recognition: a retried envelope is redelivered
	// whole, so the consumed SDE sequence — and with it every report —
	// matches the fault-free run exactly.
	if len(reports) != len(baseline) {
		t.Fatalf("restart run produced %d reports, baseline %d", len(reports), len(baseline))
	}
	for i := range baseline {
		if got, want := reports[i].Fingerprint(), baseline[i].Fingerprint(); got != want {
			t.Errorf("q=%d diverged under restarts:\n  restart:  %s\n  baseline: %s", int64(baseline[i].Q), got, want)
		}
		// Re-entry: a retrying stream stalls briefly but the pacer caps
		// how far the others can run ahead, so the staleness rule must
		// never fire.
		if len(reports[i].DegradedStreams) != 0 {
			t.Errorf("q=%d flags %v as degraded under mere restarts", int64(reports[i].Q), reports[i].DegradedStreams)
		}
	}

	// The faults actually happened — and were all absorbed by retries,
	// never by dropping SDEs.
	restarts, skipped := 0, 0
	for id, h := range chaosPipe.Topology.Health() {
		if len(id) > 6 && id[:6] == "input-" {
			restarts += h.Restarts
			skipped += h.Skipped
		}
	}
	if restarts == 0 {
		t.Error("no input process ever restarted: the fault injection did not bite")
	}
	if skipped != 0 {
		t.Errorf("%d envelopes dead-lettered: Restart supervision must retry, not drop", skipped)
	}
	injected := 0
	for _, cp := range chaosPipe.ChaosProcs {
		injected += cp.Stats().Errors
	}
	if injected == 0 {
		t.Error("chaos processors report no injected errors")
	}
}
