package insight

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

// Several boundaries due at once — a recording that ends before the
// window does, a dead mediator whose stream only ends with the run — are
// still one boundary step after another: the crowd verdicts of q are in
// the engines when q+Step is evaluated. The tests below hold OnReport runs,
// generated and replayed, and the chaos pipeline to the per-event reference in exactly that state.

const dueStep = Time(900)

func dueTogetherCity(t *testing.T) *dublin.City {
	t.Helper()
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 24, NumSensors: 60, Hotspots: 15, NoisyBusFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

// dueTogetherSystem validates noisy buses against the crowd (rule-set
// (4)), so a verdict fed back at q changes what q+Step recognises.
func dueTogetherSystem(t *testing.T, city *dublin.City, shards int) *System {
	t.Helper()
	sys, err := New(Config{
		City: city, Seed: 7, WorkingMemory: 2 * dueStep, Step: dueStep, Shards: shards,
		Participants: testParticipants(city, 8),
		Traffic:      traffic.Config{NoisyPolicy: traffic.CrowdValidated, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// withholdVerdicts is an engine tier that loses the crowd verdicts
// stamped at one time point: it files every other row of a crowd run.
type withholdVerdicts struct {
	engineTier
	at Time
}

func (w withholdVerdicts) InputCut(cut []rtec.BlockRun) ([]time.Duration, error) {
	var kept []rtec.BlockRun
	for _, run := range cut {
		b := run.Block
		if b.Type != traffic.CrowdType {
			kept = append(kept, run)
			continue
		}
		if run.Rows != nil {
			return nil, fmt.Errorf("a crowd block filed by rows %v: the boundary step files its verdicts whole", run.Rows)
		}
		var rows []int32
		for r := range b.Len() {
			if Time(b.Times[r]) != w.at {
				rows = append(rows, int32(r))
			}
		}
		if len(rows) > 0 {
			kept = append(kept, rtec.BlockRun{Block: b, Rows: rows})
		}
	}
	return w.engineTier.InputCut(kept)
}

// TestRecordingEndsEarly: the recording's last arrival lies before the
// boundary three Steps short of the window's end, so that boundary and
// the three behind it all become due when the streams end — at once.
func TestRecordingEndsEarly(t *testing.T) {
	const from = Time(7 * 3600)
	const until, last = from + 6*dueStep, from + 3*dueStep
	city := dueTogetherCity(t)
	var rec []dublin.SDE
	for _, sde := range city.Collect(from, until) {
		if sde.Arrival < last {
			rec = append(rec, sde)
		}
	}
	for _, shards := range []int{0, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			replay := func(sys *System) []*Report {
				t.Helper()
				var reports []*Report
				if err := runToEnd(context.Background())(sys.Pipeline(from, until, PipelineOptions{Replay: rec, OnReport: func(r *Report) error {
					reports = append(reports, r)
					return nil
				}})); err != nil {
					t.Fatal(err)
				}
				return reports
			}
			got := replay(dueTogetherSystem(t, city, shards))

			batched, err := dublin.BatchSDEs(rec, transportBatchRows, dueStep/2)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceReports(t, dueTogetherSystem(t, city, shards), from, until, batchSources(batched))
			compareReports(t, "RunReplay vs per-event reference", got, want)

			// The four trailing boundaries fired in one go: each was
			// released by the end-of-stream lift, not by a row.
			at := int(last-from)/int(dueStep) - 1
			for _, rep := range got[at:] {
				if rep.WatermarkLag != until+dueStep-rep.Q {
					t.Fatalf("q=%d released with watermark lag %d: not due together with the rest", rep.Q, rep.WatermarkLag)
				}
			}
			if got[at].Q != last || got[at].FedEvents == 0 || len(got[at].CrowdRounds) == 0 {
				t.Fatalf("q=%d: fed %d, %d crowd rounds; want the last boundary with data to ask the crowd",
					got[at].Q, got[at].FedEvents, len(got[at].CrowdRounds))
			}
			// Its verdicts shape the very next boundary: lose them and
			// that boundary's noisy set is another.
			deaf := dueTogetherSystem(t, city, shards)
			deaf.engines = withholdVerdicts{deaf.engines, last + 1}
			without := replay(deaf)
			if g, w := got[at].Fingerprint(), without[at].Fingerprint(); g != w {
				t.Fatalf("q=%d differs before its verdicts could matter:\n  %s\n  %s", last, g, w)
			}
			if slices.Equal(got[at+1].NoisyBuses, without[at+1].NoisyBuses) {
				t.Errorf("q=%d: noisy = %v with and without the verdicts of q=%d: the feedback edge is not exercised",
					got[at+1].Q, got[at+1].NoisyBuses, last)
			}
		})
	}
}

// TestDeadMediatorBoundariesDueTogether: one SCATS mediator dies a few
// envelopes in and no staleness bound excuses it, so every boundary past
// its last delivery waits for the end of the run and they all fire in
// the final flush — crowd rounds in between, as the reference has them.
func TestDeadMediatorBoundariesDueTogether(t *testing.T) {
	const from, until = Time(7 * 3600), Time(7*3600) + 6*dueStep
	city := dueTogetherCity(t)
	chaos := map[string]streams.FaultSpec{
		"scats-central": {Seed: 5, StallAfter: 3}, // StallFor 0: never recovers
	}
	pipe, _, err := dueTogetherSystem(t, city, 0).Pipeline(from, until, PipelineOptions{Chaos: chaos})
	if err != nil {
		t.Fatal(err)
	}
	got, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := pipe.Chaos["scats-central"].Stats(); st.Stalled == 0 {
		t.Fatal("the stall swallowed nothing: fault injection inert")
	}

	refSys := dueTogetherSystem(t, city, 0)
	srcs := batchSources(refSys.collect(from, until))
	for i, id := range pipelineStreamIDs {
		if spec, faulty := chaos[id]; faulty {
			srcs[i] = streams.NewChaosSource(srcs[i], spec.ForStream(id))
		}
	}
	compareReports(t, "dead mediator vs per-event reference", got, referenceReports(t, refSys, from, until, srcs))

	together, asked := 0, 0
	for _, rep := range got[:len(got)-1] {
		if rep.WatermarkLag == until+dueStep-rep.Q {
			together++
			asked += len(rep.CrowdRounds)
		}
	}
	if together < 2 || asked == 0 {
		t.Errorf("%d boundaries before the last fired in the final flush, with %d crowd rounds: want several, and verdicts between them", together, asked)
	}
}

// TestCallbackSeesTheBoundaryItIsGiven: fn runs once per boundary, in
// query-time order, on the monitoring goroutine between boundaries — the
// flow map it draws conditions on exactly the readings admitted by q,
// what a run that ends at q is left with, and it may read the estimator
// while crowd rounds are part of every boundary (run under -race).
func TestCallbackSeesTheBoundaryItIsGiven(t *testing.T) {
	const from, step = Time(7 * 3600), Time(120) // a third of the sensors' period
	const until = from + 6*step
	city := testCity(t)
	rec := city.Collect(from, until)
	mcfg := MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4}
	mk := func() *System {
		sys, err := New(Config{
			City: city, Seed: 7, WorkingMemory: 2 * step, Step: step,
			Participants: testParticipants(city, 8),
			Traffic:      traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := mk()
	var seen []Time
	var observed []int
	rounds := 0
	if err := runToEnd(context.Background())(sys.Pipeline(from, until, PipelineOptions{Replay: rec, OnReport: func(r *Report) error {
		seen = append(seen, r.Q)
		rounds += len(r.CrowdRounds)
		est, err := sys.FlowMap(mcfg)
		if err != nil {
			return err
		}
		observed = append(observed, est.Observations)
		_ = sys.Estimator().Participants()
		return nil
	}})); err != nil {
		t.Fatal(err)
	}
	var want []Time
	for q := from + step; q <= until; q += step {
		want = append(want, q)
	}
	if !slices.Equal(seen, want) {
		t.Fatalf("fn saw boundaries %v, want %v", seen, want)
	}
	if rounds == 0 {
		t.Error("no crowd rounds: the callback did not run beside the feedback loop")
	}
	for i, q := range want {
		short := mk()
		if err := runToEnd(context.Background())(short.Pipeline(from, q, PipelineOptions{Replay: rec})); err != nil {
			t.Fatal(err)
		}
		est, err := short.FlowMap(mcfg)
		if err != nil {
			t.Fatal(err)
		}
		if observed[i] != est.Observations {
			t.Errorf("FlowMap inside fn(%d) conditioned on %d observations, a run ending there on %d", q, observed[i], est.Observations)
		}
	}
	if !(observed[0] < observed[1]) {
		t.Errorf("observations per boundary %v: the first boundaries do not tell a reading admitted early from one admitted on time", observed)
	}
}

// TestRunCancelledInsideACrowdRound: the run's context reaches the crowd
// round, so cancelling it while a participant's device is silent ends the
// run; nothing the run started survives it. (The response timeout is what
// makes a device call interruptible at all — without one the call is
// synchronous — so the test sets one far beyond its own patience.)
func TestRunCancelledInsideACrowdRound(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	city := testCity(t)
	vols := testParticipants(city, 8)
	sys, err := New(Config{
		City: city, Seed: 7, WorkingMemory: 1800, Step: 900,
		Participants: vols, CrowdResponseTimeout: time.Hour,
		Traffic: traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	asked, hangUp := make(chan struct{}, 64), make(chan struct{})
	for _, v := range vols {
		if err := sys.qeeEngine.Connect(qee.Device{
			Participant: crowd.Participant{ID: v.ID, Pos: v.Pos},
			Respond: func(qee.Query) (string, time.Duration) {
				asked <- struct{}{}
				<-hangUp
				return traffic.Negative, 0
			},
		}); err != nil {
			t.Fatal(err)
		}
	}

	goroutines, batches := runtime.NumGoroutine(), streams.LiveBatches()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	calls := 0
	go func() {
		done <- runToEnd(ctx)(sys.Pipeline(from, until, PipelineOptions{OnReport: func(*Report) error { calls++; return nil }}))
	}()
	select {
	case <-asked:
	case err := <-done:
		t.Fatalf("run ended (%v) without asking the crowd", err)
	case <-time.After(30 * time.Second):
		t.Fatal("no crowd round within 30 s")
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("cancelled run returned %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run still blocked in its crowd round 30 s after cancellation")
	}
	if calls != 0 {
		t.Errorf("fn called %d times: the first boundary never completed", calls)
	}
	if got := streams.LiveBatches(); got != batches {
		t.Errorf("live batches = %d, want %d", got, batches)
	}
	close(hangUp) // the abandoned device calls return; nothing else may be left
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines before the run, %d after it was cancelled", goroutines, n)
	}
}
