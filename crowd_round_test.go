package insight

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// operatorParticipants places n volunteers the way cmd/e2ebench's
// operator workload does: on every seventh intersection, with error
// probabilities from 0.05 to 0.23 and the three networks in turn.
func operatorParticipants(city *dublin.City, n int) []SimParticipant {
	inters := city.Intersections()
	out := make([]SimParticipant, n)
	for i := range out {
		out[i] = SimParticipant{
			ID:        fmt.Sprintf("vol%03d", i),
			Pos:       inters[(i*7)%len(inters)].Pos,
			ErrorProb: 0.05 + 0.02*float64(i%10),
			Network:   qee.Network(i % 3),
		}
	}
	return out
}

// operatorShapedConfig is the operator workload's configuration over
// city: the default tier, 200 participants and the pessimistic adaptive
// rules.
func operatorShapedConfig(city *dublin.City) Config {
	return Config{
		City: city, Seed: 42, Participants: operatorParticipants(city, 200),
		Traffic: traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true},
	}
}

// TestCrowdPanelMemoized: every intersection's memoized panel — the ones
// a run's rounds filled and the ones filled on demand afterwards —
// equals a fresh crowdSelection over the roster's online participants at
// the intersection, and asking again returns the memo.
func TestCrowdPanelMemoized(t *testing.T) {
	city := testCity(t)
	sys, err := New(operatorShapedConfig(city))
	if err != nil {
		t.Fatal(err)
	}
	if err := runToEnd(context.Background())(sys.Pipeline(7*3600, 8*3600, PipelineOptions{})); err != nil {
		t.Fatal(err)
	}
	filled := len(sys.panels)
	if filled == 0 {
		t.Fatal("the run asked no crowd round")
	}
	inters := sys.registry.Intersections()
	for _, inter := range inters {
		got := sys.panel(inter)
		want := crowdSelection(sys.roster.Online(), inter.Pos)
		if !reflect.DeepEqual(got.selected, want) {
			t.Errorf("%s: panel %v, crowdSelection %v", inter.ID, got.selected, want)
		}
		if len(got.selected) != 5 {
			t.Fatalf("%s: panel of %d, want 5", inter.ID, len(got.selected))
		}
		if again := sys.panel(inter); &again.selected[0] != &got.selected[0] {
			t.Errorf("%s: the second ask selected again", inter.ID)
		}
	}
	t.Logf("%d of %d panels filled by the run's rounds", filled, len(inters))
}

// crowdRoundObjectsBudget and crowdRoundBytesBudget are the committed
// per-round allocation budget of the crowd stage (resolveDisagreements:
// panel, query, map tasks, EM update, verdict filing), averaged over
// the 1 630 rounds of an hour of the operator workload replayed on a
// fresh System, the first ask of each intersection's panel (a
// nearest-five selection from the online view New took) included.
// Measured at 14.3 objects and 3.05 kB per round with one online view
// for every panel; 14.5 objects and 5.55 kB when each panel's first ask
// cloned the 200-participant roster; 70.3 objects and 16.2 kB when every
// round cloned the roster, selected again, started a goroutine per
// worker and formatted its ID, question and query time with fmt. The
// budgets leave about a quarter of headroom for map growth.
const (
	crowdRoundObjectsBudget = 18
	crowdRoundBytesBudget   = 4000
)

// TestAllocBudget_CrowdRound gates the objects and bytes one crowd round
// allocates. An operator-shaped run records each boundary's merged
// result; a fresh System then resolves each boundary's disagreements in
// order, measured round by round, and must ask the same rounds and reach
// the same verdicts as the run did.
func TestAllocBudget_CrowdRound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// The operator workload's city: the small test city's 26
	// intersections see a few dozen rounds in two hours.
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NoisyBusFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(operatorShapedConfig(city))
	if err != nil {
		t.Fatal(err)
	}
	type boundary struct {
		q      Time
		fresh  []rtec.Event
		rounds []CrowdResolution
	}
	var bounds []boundary
	err = runToEnd(context.Background())(run.Pipeline(7*3600, 8*3600, PipelineOptions{OnReport: func(rep *Report) error {
		bounds = append(bounds, boundary{rep.Q, slices.Clone(rep.Result.Fresh), rep.CrowdRounds})
		return nil
	}}))
	if err != nil {
		t.Fatal(err)
	}

	sys, err := New(operatorShapedConfig(city))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var mallocs, bytes uint64
	rounds := 0
	for _, b := range bounds {
		merged := &rtec.Result{Fresh: b.fresh}
		rec := newSpanRecorder()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, _, err := sys.resolveDisagreements(ctx, b.q, merged, rec)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, b.rounds) {
			t.Fatalf("boundary %d: rounds %v, the run asked %v", b.q, got, b.rounds)
		}
		mallocs += after.Mallocs - before.Mallocs
		bytes += after.TotalAlloc - before.TotalAlloc
		rounds += rec.span.CrowdRounds
	}
	if rounds < 100 {
		t.Fatalf("only %d crowd rounds: the run does not exercise the crowd", rounds)
	}
	objects, perBytes := float64(mallocs)/float64(rounds), float64(bytes)/float64(rounds)
	t.Logf("crowd round: %.1f objects and %.0f B per round over %d rounds (budget %d and %d)",
		objects, perBytes, rounds, crowdRoundObjectsBudget, crowdRoundBytesBudget)
	if objects > crowdRoundObjectsBudget {
		t.Errorf("a crowd round allocates %.1f objects, budget %d — per-round set-up is back", objects, crowdRoundObjectsBudget)
	}
	if perBytes > crowdRoundBytesBudget {
		t.Errorf("a crowd round allocates %.0f B, budget %d — per-round set-up is back", perBytes, crowdRoundBytesBudget)
	}
}
