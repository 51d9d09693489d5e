package crowd

import (
	"math"
	"math/rand"
	"testing"
)

func TestRewardPolicies(t *testing.T) {
	p := ProportionalReward(10)
	if got := p(0.9); math.Abs(got-9) > 1e-12 {
		t.Errorf("ProportionalReward(0.9) = %v", got)
	}
	if got := p(-0.1); got != 0 {
		t.Errorf("negative posterior must pay 0, got %v", got)
	}
}

func TestLedgerValidation(t *testing.T) {
	if _, err := NewLedger(nil); err == nil {
		t.Error("nil policy must error")
	}
	l, err := NewLedger(ProportionalReward(1))
	if err != nil {
		t.Fatal(err)
	}
	// Malformed verdict.
	if err := l.Credit(Task{ID: "t"}, Verdict{Labels: []string{"a"}, Posterior: []float64{0.5, 0.5}}); err == nil {
		t.Error("mismatched verdict must error")
	}
	// Answer outside the verdict's labels.
	bad := Task{ID: "t", Answers: []Answer{{"p", "zzz"}}}
	if err := l.Credit(bad, Verdict{Labels: []string{"a", "b"}, Posterior: []float64{0.5, 0.5}}); err == nil {
		t.Error("foreign answer must error")
	}
}

func TestLedgerCreditsByPosterior(t *testing.T) {
	est := NewEstimator(EstimatorOptions{})
	ledger, err := NewLedger(ProportionalReward(1))
	if err != nil {
		t.Fatal(err)
	}
	task := Task{
		ID:     "t1",
		Labels: []string{"yes", "no"},
		Answers: []Answer{
			{"majority1", "yes"}, {"majority2", "yes"}, {"outvoted", "no"},
		},
	}
	verdict, err := est.Process(task)
	if err != nil {
		t.Fatal(err)
	}
	if err := ledger.Credit(task, verdict); err != nil {
		t.Fatal(err)
	}
	if !(ledger.earned["majority1"] > ledger.earned["outvoted"]) {
		t.Errorf("majority must out-earn the outvoted: %v vs %v",
			ledger.earned["majority1"], ledger.earned["outvoted"])
	}
	if ledger.earned["stranger"] != 0 {
		t.Error("unseen participants must have empty balances")
	}
}

// Over many tasks, reliable participants must earn more than
// unreliable ones — the paper's "quality may be a factor in the
// computation of the reward".
func TestRewardsTrackQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	good := NewSimulatedParticipant("good", 0.05, rng.Int63())
	mid := NewSimulatedParticipant("mid", 0.4, rng.Int63())
	bad := NewSimulatedParticipant("bad", 0.85, rng.Int63())
	est := NewEstimator(EstimatorOptions{})
	ledger, err := NewLedger(ProportionalReward(1))
	if err != nil {
		t.Fatal(err)
	}
	labels := []string{"congestion", "no congestion", "accident", "roadworks"}
	for q := 0; q < 300; q++ {
		truth := labels[rng.Intn(len(labels))]
		task := Task{ID: "t", Labels: labels, Answers: []Answer{
			good.Answer(labels, truth), mid.Answer(labels, truth), bad.Answer(labels, truth),
		}}
		verdict, err := est.Process(task)
		if err != nil {
			t.Fatal(err)
		}
		if err := ledger.Credit(task, verdict); err != nil {
			t.Fatal(err)
		}
	}
	balances := ledger.Balances()
	if len(balances) != 3 {
		t.Fatalf("balances = %v", balances)
	}
	if balances[0].Participant != "good" || balances[2].Participant != "bad" {
		t.Errorf("earning order wrong: %v", balances)
	}
	if !(ledger.earned["good"] > 1.5*ledger.earned["bad"]) {
		t.Errorf("reliable participant should earn much more: %v vs %v",
			ledger.earned["good"], ledger.earned["bad"])
	}
}
