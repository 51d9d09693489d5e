package crowd

import (
	"fmt"
	"sort"
)

// The paper notes that "correctly estimating the quality of
// participants ... is also important for rewarding a participant.
// Indeed, a participant's quality may be a factor in the computation
// of the reward he receives for his contribution" (Section 7.2).
// Ledger implements that accounting: each processed task pays every
// answering participant in proportion to how much probability the
// fused posterior assigns to their answer, scaled by a base rate.

// RewardPolicy computes the payment for one answer given the fused
// verdict. posterior is the probability the verdict assigns to the
// participant's own answer.
type RewardPolicy func(posterior float64) float64

// ProportionalReward pays base × P(answer | all answers): confident
// agreement with the fused outcome earns close to base; answers the
// crowd overrules earn close to nothing. It never pays negative
// amounts (penalising volunteers drives them away).
//
//lint:allow unusedapi Section 7.2's quality-weighted reward; Example_crowdresolve pays with it
func ProportionalReward(base float64) RewardPolicy {
	return func(posterior float64) float64 {
		if posterior < 0 {
			return 0
		}
		return base * posterior
	}
}

// Ledger accumulates rewards across tasks.
type Ledger struct {
	policy RewardPolicy
	earned map[string]float64
}

// NewLedger builds a ledger with the given policy.
//
//lint:allow unusedapi Section 7.2's reward ledger; Example_crowdresolve pays with it
func NewLedger(policy RewardPolicy) (*Ledger, error) {
	if policy == nil {
		return nil, fmt.Errorf("crowd: nil reward policy")
	}
	return &Ledger{
		policy: policy,
		earned: make(map[string]float64),
	}, nil
}

// Credit applies the policy to every answer of a fused task. Call it
// with the verdict returned by Estimator.Process for the same task.
//
//lint:allow unusedapi Section 7.2's reward ledger; Example_crowdresolve pays with it
func (l *Ledger) Credit(task Task, verdict Verdict) error {
	if len(verdict.Labels) != len(verdict.Posterior) {
		return fmt.Errorf("crowd: malformed verdict for task %q", task.ID)
	}
	for _, a := range task.Answers {
		idx := labelIndex(verdict.Labels, a.Label)
		if idx < 0 {
			return fmt.Errorf("crowd: answer %q of task %q not among verdict labels", a.Label, task.ID)
		}
		l.earned[a.Participant] += l.policy(verdict.Posterior[idx])
	}
	return nil
}

// Balance is one row of the ledger.
type Balance struct {
	Participant string
	Earned      float64
}

// Balances returns all rows, highest earners first (ties by ID).
//
//lint:allow unusedapi Section 7.2's reward ledger; Example_crowdresolve pays with it
func (l *Ledger) Balances() []Balance {
	out := make([]Balance, 0, len(l.earned))
	for id, e := range l.earned {
		out = append(out, Balance{Participant: id, Earned: e})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Earned != out[j].Earned { //lint:allow floateq exact compare inside a comparator: any consistent order is correct, ties fall through to ID
			return out[i].Earned > out[j].Earned
		}
		return out[i].Participant < out[j].Participant
	})
	return out
}
