package crowd

import (
	"fmt"
	"math"
	"sort"

	"github.com/insight-dublin/insight/internal/codec"
)

// GammaFunc is the stochastic approximation schedule γ_1, γ_2, ... of
// the online EM update; it must satisfy Σγ_t = ∞ and Σγ_t² < ∞.
type GammaFunc func(t int) float64

// DefaultGamma is the schedule used in the paper's evaluation:
// γ_t = t/(t+1)... scaled per update count. The paper (Section 7.2)
// uses γ_t = t/(t+1); note this is the weight on the NEW observation,
// so early answers move the estimate a lot and later ones less — the
// first update (t = 1) has weight 1/2.
func DefaultGamma(t int) float64 { return 1 / (float64(t) + 1) }

// PaperGamma is the literal γ_t = t/(t+1) schedule quoted in Section
// 7.2. It weights the new observation by t/(t+1), which converges in
// practice on stationary participants (the estimate is dominated by
// recent posteriors once they are confident).
func PaperGamma(t int) float64 { return float64(t) / (float64(t) + 1) }

// EstimatorOptions configures the online EM estimator.
type EstimatorOptions struct {
	// InitialErrorProb is the initial estimate p̂_i for a newly seen
	// participant. The paper initializes to 0.25, biasing "towards
	// trustful participants": an unbiased 0.75 initialisation with a
	// uniform prior would be a fixed point and never update.
	InitialErrorProb float64
	// Gamma is the stochastic approximation schedule. Default:
	// DefaultGamma (γ_t = 1/(t+1), i.e. a running average).
	Gamma GammaFunc
	// MinErrorProb / MaxErrorProb clamp the estimates away from the
	// degenerate 0 and 1 values, where the likelihood would assign
	// zero probability to possible worlds. Defaults: 1e-4, 1−1e-4.
	MinErrorProb float64
	MaxErrorProb float64
}

func (o EstimatorOptions) withDefaults() EstimatorOptions {
	if o.InitialErrorProb == 0 {
		o.InitialErrorProb = 0.25
	}
	if o.Gamma == nil {
		o.Gamma = DefaultGamma
	}
	if o.MinErrorProb == 0 {
		o.MinErrorProb = 1e-4
	}
	if o.MaxErrorProb == 0 {
		o.MaxErrorProb = 1 - 1e-4
	}
	return o
}

// Estimator is the online EM estimator of Algorithm 1: it fuses the
// answers of each task into a posterior over the labels (the E
// sufficient statistics, lines 3–8), emits the MAP verdict (line 10),
// and updates the error probability estimate of every answering
// participant with a per-participant stochastic approximation step
// (lines 11–14). Tasks are then forgotten — memory is O(participants),
// independent of the number of disagreements processed.
//
// Estimator is not safe for concurrent use.
type Estimator struct {
	opts  EstimatorOptions //state:transient configuration, supplied to NewEstimator
	state map[string]*participantState
}

type participantState struct {
	errorProb float64
	queries   int // t_i: times this participant has been queried
}

// NewEstimator builds an online EM estimator.
func NewEstimator(opts EstimatorOptions) *Estimator {
	return &Estimator{
		opts:  opts.withDefaults(),
		state: make(map[string]*participantState),
	}
}

// ErrorProb returns the current estimate p̂_i for a participant. New
// participants report the initial estimate.
func (e *Estimator) ErrorProb(participant string) float64 {
	if s, ok := e.state[participant]; ok {
		return s.errorProb
	}
	return e.opts.InitialErrorProb
}

// Queries returns how many tasks the participant has answered.
func (e *Estimator) Queries(participant string) int {
	if s, ok := e.state[participant]; ok {
		return s.queries
	}
	return 0
}

// Participants returns the IDs seen so far, sorted.
func (e *Estimator) Participants() []string {
	out := make([]string, 0, len(e.state))
	for id := range e.state {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AppendBinary appends the learned state — every participant's error
// probability and query count, in ID order — to dst; UnmarshalBinary
// reads it back. The options are not part of it: they come from
// NewEstimator.
func (e *Estimator) AppendBinary(dst []byte) ([]byte, error) {
	ids := e.Participants()
	dst = codec.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		s := e.state[id]
		dst = codec.AppendString(dst, id)
		dst = codec.AppendFloat(dst, s.errorProb)
		dst = codec.AppendVarint(dst, int64(s.queries))
	}
	return dst, nil
}

// UnmarshalBinary replaces the learned state with AppendBinary's
// encoding. It refuses a repeated participant, a negative query count
// and an error probability that is not finite or lies outside
// [MinErrorProb, MaxErrorProb] — no estimate Process can reach —
// leaving the estimator as it was.
func (e *Estimator) UnmarshalBinary(data []byte) error {
	d := codec.NewDecoder(data)
	state := make(map[string]*participantState)
	for i, n := 0, d.Count(); i < n && d.Err() == nil; i++ {
		id, p, q := d.String(), d.Float(), d.Varint()
		switch {
		case d.Err() != nil:
		case state[id] != nil:
			d.Fail("crowd: participant %q encoded twice", id)
		case !(p >= e.opts.MinErrorProb && p <= e.opts.MaxErrorProb):
			d.Fail("crowd: participant %q error probability %v outside [%v, %v]", id, p, e.opts.MinErrorProb, e.opts.MaxErrorProb)
		case q < 0:
			d.Fail("crowd: participant %q query count %d", id, q)
		default:
			state[id] = &participantState{errorProb: p, queries: int(q)}
		}
	}
	if err := d.Err(); err != nil {
		return err
	}
	if d.Len() != 0 {
		return fmt.Errorf("crowd: %d trailing bytes after estimator state", d.Len())
	}
	e.state = state
	return nil
}

// Posterior computes the posterior distribution over a task's labels
// given its answers and the current participant estimates, without
// updating any estimate (pure inference by Bayes rule; lines 3–8 of
// Algorithm 1).
func (e *Estimator) Posterior(task Task) (Verdict, error) {
	if err := task.validate(); err != nil {
		return Verdict{}, err
	}
	k := len(task.Labels)
	alpha := make([]float64, k)
	for j := range alpha {
		if task.Prior != nil {
			alpha[j] = task.Prior[j]
		} else {
			alpha[j] = 1.0 / float64(k)
		}
	}
	// Work in log space to stay stable with many answers.
	logAlpha := make([]float64, k)
	for j, a := range alpha {
		if a == 0 {
			logAlpha[j] = math.Inf(-1)
		} else {
			logAlpha[j] = math.Log(a)
		}
	}
	for _, ans := range task.Answers {
		p := e.clamp(e.ErrorProb(ans.Participant))
		yi := labelIndex(task.Labels, ans.Label)
		for j := range logAlpha {
			if j == yi {
				logAlpha[j] += math.Log(1 - p)
			} else {
				logAlpha[j] += math.Log(p / float64(k-1))
			}
		}
	}
	// Normalize via log-sum-exp.
	maxLog := math.Inf(-1)
	for _, l := range logAlpha {
		if l > maxLog {
			maxLog = l
		}
	}
	post := make([]float64, k)
	var sum float64
	for j, l := range logAlpha {
		post[j] = math.Exp(l - maxLog)
		sum += post[j]
	}
	best, bestP := 0, 0.0
	for j := range post {
		post[j] /= sum
		if post[j] > bestP {
			best, bestP = j, post[j]
		}
	}
	return Verdict{
		TaskID:     task.ID,
		Labels:     task.Labels,
		Posterior:  post,
		Best:       task.Labels[best],
		Confidence: bestP,
	}, nil
}

// Process fuses a task and updates the answering participants'
// estimates (the full Algorithm 1 step). The task can be discarded by
// the caller afterwards.
func (e *Estimator) Process(task Task) (Verdict, error) {
	v, err := e.Posterior(task)
	if err != nil {
		return Verdict{}, err
	}
	// Lines 11–14: per-participant stochastic approximation with the
	// participant-specific step count t_i.
	for _, ans := range task.Answers {
		s := e.state[ans.Participant]
		if s == nil {
			s = &participantState{errorProb: e.opts.InitialErrorProb}
			e.state[ans.Participant] = s
		}
		s.queries++
		gamma := e.opts.Gamma(s.queries)
		yi := labelIndex(task.Labels, ans.Label)
		// 1 − α(y_{i,t}): the posterior probability that the answer
		// was wrong.
		wrong := 1 - v.Posterior[yi]
		s.errorProb = e.clamp((1-gamma)*s.errorProb + gamma*wrong)
	}
	return v, nil
}

func (e *Estimator) clamp(p float64) float64 {
	if p < e.opts.MinErrorProb {
		return e.opts.MinErrorProb
	}
	if p > e.opts.MaxErrorProb {
		return e.opts.MaxErrorProb
	}
	return p
}

// BatchEM estimates participant error probabilities from a complete
// task history with the classical batch EM algorithm (Dempster et al.
// 1977), the baseline the paper argues against for streams: it must
// re-read every answer at each iteration, so its cost per update grows
// with the history. It returns the estimates and the number of
// iterations performed.
func BatchEM(tasks []Task, opts EstimatorOptions, maxIters int, tol float64) (map[string]float64, int, error) {
	opts = opts.withDefaults()
	if maxIters <= 0 {
		maxIters = 100
	}
	if tol <= 0 {
		tol = 1e-6
	}
	for _, t := range tasks {
		if err := t.validate(); err != nil {
			return nil, 0, err
		}
	}
	est := make(map[string]float64)
	counts := make(map[string]int)
	for _, t := range tasks {
		for _, a := range t.Answers {
			est[a.Participant] = opts.InitialErrorProb
			counts[a.Participant]++
		}
	}
	iters := 0
	for ; iters < maxIters; iters++ {
		// E-step: posteriors under current estimates; M-step
		// accumulator: expected number of wrong answers.
		wrongSum := make(map[string]float64, len(est))
		scratch := &Estimator{opts: opts, state: make(map[string]*participantState, len(est))}
		for id, p := range est {
			scratch.state[id] = &participantState{errorProb: p}
		}
		for _, t := range tasks {
			v, err := scratch.Posterior(t)
			if err != nil {
				return nil, 0, err
			}
			for _, a := range t.Answers {
				yi := labelIndex(t.Labels, a.Label)
				wrongSum[a.Participant] += 1 - v.Posterior[yi]
			}
		}
		var delta float64
		for id := range est {
			next := wrongSum[id] / float64(counts[id])
			next = scratch.clamp(next)
			delta = math.Max(delta, math.Abs(next-est[id]))
			est[id] = next
		}
		if delta < tol {
			iters++
			break
		}
	}
	return est, iters, nil
}

// String renders the estimator state for diagnostics.
func (e *Estimator) String() string {
	ids := e.Participants()
	s := "crowd.Estimator{"
	for i, id := range ids {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s: p=%.3f (n=%d)", id, e.state[id].errorProb, e.state[id].queries)
	}
	return s + "}"
}

// ConstantGamma returns a fixed-step schedule γ_t = c. It does not
// satisfy the Σγ² < ∞ convergence condition — the estimate keeps a
// bounded variance forever — but that is exactly what tracking
// participants with TIME-VARYING reliability requires: a running
// average (DefaultGamma) weighs ancient answers equally and can never
// forget, while a constant step forgets at rate (1-c) per answer.
func ConstantGamma(c float64) GammaFunc {
	return func(int) float64 { return c }
}
