// Package crowd implements the crowdsourcing component of Artikis et
// al. (EDBT 2014, Section 5): fusing answers from imperfect human
// participants to resolve sensor source disagreements.
//
// The model (Section 5.1): each source disagreement is an unobserved
// categorical variable X_t with labels Val(X_t) and a prior P(X_t);
// participant i has a constant but unknown probability p_i of
// answering with a wrong label, choosing uniformly among the wrong
// labels; answers are independent across participants and tasks.
//
// Estimation (Section 5.2): participant error probabilities are
// estimated with an online Expectation-Maximization algorithm
// (Algorithm 1 of the paper, after Cappé & Moulines 2009) that
// processes one disagreement at a time and then forgets it — the batch
// EM alternative, provided here as a baseline, needs the full answer
// history at every step and cannot keep up with an unbounded stream.
package crowd

import (
	"fmt"
	"math"
	"math/rand"
)

// Task is one crowdsourcing query about a source disagreement event
// X_t: the possible labels, an optional prior over them, and the
// collected answers from the queried participants u_t.
type Task struct {
	// ID identifies the disagreement (e.g. intersection + time).
	ID string
	// Labels is Val(X_t), the possible answers presented to every
	// queried participant. Must have at least two entries.
	Labels []string
	// Prior is P(X_t) over Labels. Nil means uniform. Must sum to ~1.
	Prior []float64
	// Answers holds one answer per queried participant.
	Answers []Answer
}

// Answer is participant Participant's label choice for a task.
type Answer struct {
	Participant string
	Label       string
}

// Verdict is the fused outcome of a task: the posterior distribution
// over the labels and the maximum a-posteriori label.
type Verdict struct {
	TaskID string
	// Labels echoes the task's label set.
	Labels []string
	// Posterior is P(X_t = labels[j] | answers), normalized.
	Posterior []float64
	// Best is the MAP label and Confidence its posterior probability.
	Best       string
	Confidence float64
}

// Peaked reports whether the posterior concentrates nearly all mass on
// one label. The paper reports that "most of the time (94% in this
// experiment) the posterior probability distribution is very peaked:
// the probability of one of the 4 explanations is greater than 0.99".
func (v Verdict) Peaked(threshold float64) bool { return v.Confidence > threshold }

func (t Task) validate() error {
	if len(t.Labels) < 2 {
		return fmt.Errorf("crowd: task %q needs at least two labels", t.ID)
	}
	seen := make(map[string]bool, len(t.Labels))
	for _, l := range t.Labels {
		if seen[l] {
			return fmt.Errorf("crowd: task %q has duplicate label %q", t.ID, l)
		}
		seen[l] = true
	}
	if t.Prior != nil {
		if len(t.Prior) != len(t.Labels) {
			return fmt.Errorf("crowd: task %q prior has %d entries for %d labels", t.ID, len(t.Prior), len(t.Labels))
		}
		var sum float64
		for _, p := range t.Prior {
			if !(p >= 0) || math.IsInf(p, 1) {
				return fmt.Errorf("crowd: task %q has prior %v: want finite and non-negative", t.ID, p)
			}
			sum += p
		}
		if sum < 1e-9 {
			return fmt.Errorf("crowd: task %q prior sums to zero", t.ID)
		}
	}
	for _, a := range t.Answers {
		if !seen[a.Label] {
			return fmt.Errorf("crowd: task %q answer %q not among labels", t.ID, a.Label)
		}
	}
	return nil
}

// labelIndex returns the index of label in labels, or -1.
func labelIndex(labels []string, label string) int {
	for i, l := range labels {
		if l == label {
			return i
		}
	}
	return -1
}

// SimulatedParticipant draws answers according to the paper's
// participant model: with probability 1−ErrorProb it gives the true
// label; otherwise it picks one of the other labels uniformly at
// random. The evaluation of Section 7.2 simulates ten such
// participants.
type SimulatedParticipant struct {
	ID        string
	ErrorProb float64
	rng       *rand.Rand
}

// NewSimulatedParticipant creates a participant with the given error
// probability and deterministic seed.
func NewSimulatedParticipant(id string, errorProb float64, seed int64) *SimulatedParticipant {
	return &SimulatedParticipant{ID: id, ErrorProb: errorProb, rng: rand.New(rand.NewSource(seed))}
}

// Answer produces the participant's answer to a task whose true label
// is trueLabel.
func (s *SimulatedParticipant) Answer(labels []string, trueLabel string) Answer {
	if s.rng.Float64() >= s.ErrorProb {
		return Answer{Participant: s.ID, Label: trueLabel}
	}
	// Uniform over the wrong labels.
	wrong := make([]string, 0, len(labels)-1)
	for _, l := range labels {
		if l != trueLabel {
			wrong = append(wrong, l)
		}
	}
	if len(wrong) == 0 {
		return Answer{Participant: s.ID, Label: trueLabel}
	}
	return Answer{Participant: s.ID, Label: wrong[s.rng.Intn(len(wrong))]}
}
