package crowd

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/internal/codec"
)

var fourLabels = []string{"congestion", "no congestion", "accident", "roadworks"}

// PaperParticipants are the ten simulated participants of Section 7.2.
var paperErrorProbs = []float64{0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9}

func TestTaskValidation(t *testing.T) {
	cases := []struct {
		name string
		task Task
	}{
		{"one label", Task{ID: "t", Labels: []string{"a"}}},
		{"duplicate labels", Task{ID: "t", Labels: []string{"a", "a"}}},
		{"prior length", Task{ID: "t", Labels: []string{"a", "b"}, Prior: []float64{1}}},
		{"negative prior", Task{ID: "t", Labels: []string{"a", "b"}, Prior: []float64{-1, 2}}},
		{"zero prior", Task{ID: "t", Labels: []string{"a", "b"}, Prior: []float64{0, 0}}},
		{"NaN prior", Task{ID: "t", Labels: []string{"a", "b"}, Prior: []float64{math.NaN(), 0.5}}},
		{"infinite prior", Task{ID: "t", Labels: []string{"a", "b"}, Prior: []float64{math.Inf(1), 0.5}}},
		{"answer off label set", Task{ID: "t", Labels: []string{"a", "b"}, Answers: []Answer{{"p1", "c"}}}},
	}
	e := NewEstimator(EstimatorOptions{})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := e.Posterior(c.task); err == nil {
				t.Error("want validation error")
			}
			if _, err := e.Process(c.task); err == nil {
				t.Error("want validation error from Process too")
			}
		})
	}
}

// Hand-computed Bayes check: binary task, one participant with known
// error probability.
func TestPosteriorBayesRule(t *testing.T) {
	e := NewEstimator(EstimatorOptions{InitialErrorProb: 0.2})
	task := Task{
		ID:      "t1",
		Labels:  []string{"yes", "no"},
		Answers: []Answer{{Participant: "p1", Label: "yes"}},
	}
	v, err := e.Posterior(task)
	if err != nil {
		t.Fatal(err)
	}
	// Uniform prior; P(yes|answer yes) = 0.8 / (0.8 + 0.2) = 0.8.
	if math.Abs(v.Posterior[0]-0.8) > 1e-12 {
		t.Errorf("P(yes) = %v, want 0.8", v.Posterior[0])
	}
	if v.Best != "yes" || math.Abs(v.Confidence-0.8) > 1e-12 {
		t.Errorf("Best = %q (%v)", v.Best, v.Confidence)
	}
}

func TestPosteriorUsesPrior(t *testing.T) {
	e := NewEstimator(EstimatorOptions{InitialErrorProb: 0.25})
	// A heavily skewed prior should dominate a single answer: the CE
	// component can set it from how many buses reported congestion
	// (Section 5.1).
	task := Task{
		ID:      "t1",
		Labels:  []string{"yes", "no"},
		Prior:   []float64{0.95, 0.05},
		Answers: []Answer{{Participant: "p1", Label: "no"}},
	}
	v, err := e.Posterior(task)
	if err != nil {
		t.Fatal(err)
	}
	// P(yes) ∝ 0.95·0.25, P(no) ∝ 0.05·0.75 → yes still wins.
	if v.Best != "yes" {
		t.Errorf("Best = %q, want prior to dominate", v.Best)
	}
}

func TestPosteriorMajority(t *testing.T) {
	e := NewEstimator(EstimatorOptions{InitialErrorProb: 0.25})
	task := Task{
		ID:     "t1",
		Labels: fourLabels,
		Answers: []Answer{
			{"p1", "congestion"},
			{"p2", "congestion"},
			{"p3", "accident"},
		},
	}
	v, err := e.Posterior(task)
	if err != nil {
		t.Fatal(err)
	}
	if v.Best != "congestion" {
		t.Errorf("Best = %q, want majority answer", v.Best)
	}
	var sum float64
	for _, p := range v.Posterior {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("posterior sums to %v", sum)
	}
}

func TestProcessUpdatesEstimates(t *testing.T) {
	e := NewEstimator(EstimatorOptions{})
	if got := e.ErrorProb("new"); got != 0.25 {
		t.Errorf("initial estimate = %v, want paper's 0.25", got)
	}
	task := Task{
		ID:     "t1",
		Labels: []string{"yes", "no"},
		Answers: []Answer{
			{"good", "yes"}, {"good2", "yes"}, {"good3", "yes"},
			{"bad", "no"},
		},
	}
	if _, err := e.Process(task); err != nil {
		t.Fatal(err)
	}
	if e.Queries("good") != 1 || e.Queries("bad") != 1 {
		t.Error("query counts not updated")
	}
	if !(e.ErrorProb("bad") > e.ErrorProb("good")) {
		t.Errorf("outvoted participant must look worse: bad=%v good=%v",
			e.ErrorProb("bad"), e.ErrorProb("good"))
	}
	if got := len(e.Participants()); got != 4 {
		t.Errorf("Participants = %d, want 4", got)
	}
}

// The paper's estimation experiment (Figure 5): ten participants with
// known error probabilities, four possible answers, every participant
// answers every query. The estimates must converge to the true values
// and the quality ordering must be essentially correct after enough
// queries.
func TestOnlineEMConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	participants := make([]*SimulatedParticipant, len(paperErrorProbs))
	for i, p := range paperErrorProbs {
		participants[i] = NewSimulatedParticipant(participantID(i), p, rng.Int63())
	}
	e := NewEstimator(EstimatorOptions{})

	peaked, total := 0, 0
	for q := 0; q < 1000; q++ {
		truth := fourLabels[rng.Intn(len(fourLabels))]
		task := Task{ID: "q", Labels: fourLabels}
		for _, sp := range participants {
			task.Answers = append(task.Answers, sp.Answer(fourLabels, truth))
		}
		v, err := e.Process(task)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if v.Peaked(0.99) {
			peaked++
		}
	}

	for i, want := range paperErrorProbs {
		got := e.ErrorProb(participantID(i))
		if math.Abs(got-want) > 0.08 {
			t.Errorf("participant %d: estimate %.3f, true %.3f", i+1, got, want)
		}
	}
	// Ordering check, allowing swaps between near-ties as the paper
	// observes (participants 2-3 and 6-7 have close probabilities).
	for i := 0; i+1 < len(paperErrorProbs); i++ {
		gap := paperErrorProbs[i+1] - paperErrorProbs[i]
		if gap < 0.04 {
			continue // near-tie: ordering not required
		}
		if e.ErrorProb(participantID(i)) >= e.ErrorProb(participantID(i+1)) {
			t.Errorf("ordering violated between %d (%.3f) and %d (%.3f)",
				i+1, e.ErrorProb(participantID(i)), i+2, e.ErrorProb(participantID(i+1)))
		}
	}
	// The paper reports 94% of posteriors peaked above 0.99 — with 10
	// participants and 4 labels the fused answer is almost always
	// certain.
	if frac := float64(peaked) / float64(total); frac < 0.85 {
		t.Errorf("peaked fraction = %.2f, want ≥ 0.85 (paper: 0.94)", frac)
	}
}

func participantID(i int) string { return string(rune('A' + i)) }

func TestEstimatesStayClamped(t *testing.T) {
	e := NewEstimator(EstimatorOptions{})
	// A participant who is always right must not reach exactly 0.
	for q := 0; q < 200; q++ {
		task := Task{
			ID:     "t",
			Labels: []string{"a", "b"},
			Answers: []Answer{
				{"saint", "a"}, {"w1", "a"}, {"w2", "a"},
			},
		}
		if _, err := e.Process(task); err != nil {
			t.Fatal(err)
		}
	}
	p := e.ErrorProb("saint")
	if p <= 0 || p >= 1 {
		t.Errorf("estimate out of open interval: %v", p)
	}
	if p > 0.05 {
		t.Errorf("always-right participant estimate = %v, want near 0", p)
	}
}

// TestEstimatorBinaryRoundTrip: the learned state survives
// AppendBinary/UnmarshalBinary bit for bit, and the decoder refuses
// what no run of Process can produce.
func TestEstimatorBinaryRoundTrip(t *testing.T) {
	e := NewEstimator(EstimatorOptions{})
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		task := Task{ID: "t", Labels: fourLabels}
		for _, id := range []string{"p1", "p2", "p3"} {
			task.Answers = append(task.Answers, Answer{id, fourLabels[rng.Intn(len(fourLabels))]})
		}
		if _, err := e.Process(task); err != nil {
			t.Fatal(err)
		}
	}
	data, err := e.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := NewEstimator(EstimatorOptions{})
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if got.String() != e.String() {
		t.Fatalf("round trip: %s, want %s", got, e)
	}
	for _, id := range e.Participants() {
		if got.ErrorProb(id) != e.ErrorProb(id) || got.Queries(id) != e.Queries(id) {
			t.Errorf("%s: p=%v n=%d, want p=%v n=%d", id, got.ErrorProb(id), got.Queries(id), e.ErrorProb(id), e.Queries(id))
		}
	}

	entry := func(id string, p float64, n int64) []byte {
		b := codec.AppendString(nil, id)
		b = codec.AppendFloat(b, p)
		return codec.AppendVarint(b, n)
	}
	state := func(entries ...[]byte) []byte {
		b := codec.AppendUvarint(nil, uint64(len(entries)))
		for _, e := range entries {
			b = append(b, e...)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"NaN":        state(entry("p", math.NaN(), 1)),
		"+Inf":       state(entry("p", math.Inf(1), 1)),
		"below min":  state(entry("p", 0, 1)),
		"above max":  state(entry("p", 1, 1)),
		"negative n": state(entry("p", 0.3, -1)),
		"repeated":   state(entry("p", 0.3, 1), entry("p", 0.2, 2)),
		"truncated":  state(entry("p", 0.3, 1))[:5],
		"trailing":   append(state(entry("p", 0.3, 1)), 0),
	} {
		if err := got.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if got.String() != e.String() {
		t.Errorf("a refused decode changed the state: %s", got)
	}
}

func TestGammaSchedules(t *testing.T) {
	if g := DefaultGamma(1); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("DefaultGamma(1) = %v, want 0.5", g)
	}
	if g := DefaultGamma(99); math.Abs(g-0.01) > 1e-12 {
		t.Errorf("DefaultGamma(99) = %v, want 0.01", g)
	}
	if g := PaperGamma(1); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("PaperGamma(1) = %v, want 0.5", g)
	}
	if g := PaperGamma(3); math.Abs(g-0.75) > 1e-12 {
		t.Errorf("PaperGamma(3) = %v, want 0.75", g)
	}
}

func TestBatchEMMatchesOnline(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trueProbs := []float64{0.1, 0.3, 0.6}
	sims := make([]*SimulatedParticipant, len(trueProbs))
	for i, p := range trueProbs {
		sims[i] = NewSimulatedParticipant(participantID(i), p, rng.Int63())
	}
	var tasks []Task
	for q := 0; q < 400; q++ {
		truth := fourLabels[rng.Intn(len(fourLabels))]
		task := Task{ID: "t", Labels: fourLabels}
		for _, sp := range sims {
			task.Answers = append(task.Answers, sp.Answer(fourLabels, truth))
		}
		tasks = append(tasks, task)
	}
	est, iters, err := BatchEM(tasks, EstimatorOptions{}, 100, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if iters == 0 {
		t.Error("batch EM did no iterations")
	}
	for i, want := range trueProbs {
		got := est[participantID(i)]
		if math.Abs(got-want) > 0.1 {
			t.Errorf("batch EM participant %d: %.3f, true %.3f", i, got, want)
		}
	}
}

func TestBatchEMValidation(t *testing.T) {
	if _, _, err := BatchEM([]Task{{ID: "t", Labels: []string{"a"}}}, EstimatorOptions{}, 10, 1e-6); err == nil {
		t.Error("invalid task must error")
	}
}

func TestSimulatedParticipantDistribution(t *testing.T) {
	sp := NewSimulatedParticipant("p", 0.4, 99)
	wrong := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if a := sp.Answer(fourLabels, "congestion"); a.Label != "congestion" {
			wrong++
		}
	}
	if f := float64(wrong) / n; math.Abs(f-0.4) > 0.02 {
		t.Errorf("wrong fraction = %.3f, want ≈ 0.4", f)
	}
	// Two-label degenerate case: wrong answers must be the other label.
	if a := NewSimulatedParticipant("p", 1.0, 1).Answer([]string{"a", "b"}, "a"); a.Label != "b" {
		t.Errorf("always-wrong answer = %q, want b", a.Label)
	}
	// Single label: nothing wrong to pick.
	if a := NewSimulatedParticipant("p", 1.0, 1).Answer([]string{"a"}, "a"); a.Label != "a" {
		t.Errorf("single-label answer = %q", a.Label)
	}
}

func TestRoster(t *testing.T) {
	r := NewRoster()
	if err := r.Register(Participant{}); err == nil {
		t.Error("empty ID must error")
	}
	for _, p := range []Participant{
		{ID: "a", Pos: geo.At(53.35, -6.26), Online: true},
		{ID: "b", Pos: geo.At(53.36, -6.27), Online: false},
		{ID: "c", Pos: geo.At(53.30, -6.20), Online: true},
	} {
		if err := r.Register(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(r.participants) != 3 {
		t.Errorf("registered = %d", len(r.participants))
	}
	on := r.Online()
	if len(on) != 2 || on[0].ID != "a" || on[1].ID != "c" {
		t.Errorf("Online = %v", on)
	}
	if err := update(r, "b", func(p *Participant) { p.Online = true }); err != nil {
		t.Fatal(err)
	}
	if len(r.Online()) != 3 {
		t.Error("b should now be online")
	}
	if err := update(r, "a", func(p *Participant) { p.Pos = geo.At(53.40, -6.30) }); err != nil {
		t.Fatal(err)
	}
	if p := r.participants["a"]; p.Pos.Lat != 53.40 {
		t.Error("location update lost")
	}
}

func TestSelectNearest(t *testing.T) {
	task := geo.At(53.3500, -6.2600)
	candidates := []Participant{
		{ID: "far", Pos: geo.At(53.40, -6.10)},
		{ID: "near1", Pos: geo.At(53.3502, -6.2600)},
		{ID: "near2", Pos: geo.At(53.3510, -6.2600)},
		{ID: "mid", Pos: geo.At(53.3600, -6.2600)},
	}
	got := SelectNearest(2, 0)(candidates, task)
	if len(got) != 2 || got[0].ID != "near1" || got[1].ID != "near2" {
		t.Errorf("SelectNearest(2) = %v", got)
	}
	// Distance bound excludes everyone beyond 500 m.
	got = SelectNearest(0, 500)(candidates, task)
	if len(got) != 2 {
		t.Errorf("SelectNearest(bound 500m) = %v", got)
	}
	// SelectAll passes everything through.
	if got := SelectAll(candidates, task); len(got) != 4 {
		t.Errorf("SelectAll = %v", got)
	}
}

func TestSelectMostReliable(t *testing.T) {
	e := NewEstimator(EstimatorOptions{})
	// Make "good" trusted and "bad" distrusted via processed tasks.
	for i := 0; i < 50; i++ {
		_, err := e.Process(Task{
			ID:     "t",
			Labels: []string{"a", "b"},
			Answers: []Answer{
				{"good", "a"}, {"w1", "a"}, {"bad", "b"},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	candidates := []Participant{{ID: "bad"}, {ID: "good"}, {ID: "unseen"}}
	got := SelectMostReliable(2, e)(candidates, geo.Point{})
	if len(got) != 2 || got[0].ID != "good" {
		t.Errorf("SelectMostReliable = %v", got)
	}
	for _, p := range got {
		if p.ID == "bad" {
			t.Error("least reliable participant must be dropped")
		}
	}
}

func TestDeadlineFeasible(t *testing.T) {
	comm := func(p Participant) time.Duration {
		if p.ID == "slowlink" {
			return 900 * time.Millisecond
		}
		return 150 * time.Millisecond
	}
	candidates := []Participant{
		{ID: "ok", ComputeTime: 100 * time.Millisecond},
		{ID: "slowlink", ComputeTime: 100 * time.Millisecond},
		{ID: "slowbrain", ComputeTime: 2 * time.Second},
	}
	got := DeadlineFeasible(SelectAll, comm, 500*time.Millisecond)(candidates, geo.Point{})
	if len(got) != 1 || got[0].ID != "ok" {
		t.Errorf("DeadlineFeasible = %v", got)
	}
}

func TestConstantGamma(t *testing.T) {
	g := ConstantGamma(0.1)
	if g(1) != 0.1 || g(1000) != 0.1 {
		t.Error("ConstantGamma must be constant")
	}
}

func TestDriftingParticipant(t *testing.T) {
	d := newDriftingParticipant("d", 0.0, 1.0, 3, 1)
	if d.ErrorProb() != 0 {
		t.Error("before the switch the participant is perfect")
	}
	for i := 0; i < 3; i++ {
		if a := d.Answer(fourLabels, "congestion"); a.Label != "congestion" {
			t.Errorf("answer %d should be truthful", i)
		}
	}
	if d.ErrorProb() != 1 {
		t.Error("after the switch the participant always errs")
	}
	if a := d.Answer(fourLabels, "congestion"); a.Label == "congestion" {
		t.Error("post-switch answer should be wrong")
	}
	if a := d.Answer([]string{"only"}, "only"); a.Label != "only" {
		t.Error("single-label fallback")
	}
}

// A constant-step schedule tracks reliability drift; the running
// average cannot. This is the sequential-estimation scenario the paper
// cites as motivation (time-varying annotator accuracy).
func TestOnlineEMTracksDrift(t *testing.T) {
	run := func(gamma GammaFunc) float64 {
		rng := rand.New(rand.NewSource(31))
		// Four reliable anchors so the posterior stays accurate, plus
		// one participant that degrades halfway through.
		anchors := make([]*SimulatedParticipant, 4)
		for i := range anchors {
			anchors[i] = NewSimulatedParticipant(participantID(i), 0.1, rng.Int63())
		}
		drifter := newDriftingParticipant("drifter", 0.05, 0.85, 500, rng.Int63())
		e := NewEstimator(EstimatorOptions{Gamma: gamma})
		for q := 0; q < 1000; q++ {
			truth := fourLabels[rng.Intn(len(fourLabels))]
			task := Task{ID: "t", Labels: fourLabels}
			for _, a := range anchors {
				task.Answers = append(task.Answers, a.Answer(fourLabels, truth))
			}
			task.Answers = append(task.Answers, drifter.Answer(fourLabels, truth))
			if _, err := e.Process(task); err != nil {
				t.Fatal(err)
			}
		}
		return e.ErrorProb("drifter")
	}

	tracking := run(ConstantGamma(0.05))
	averaging := run(DefaultGamma)

	// The true post-switch error probability is 0.85. The tracking
	// schedule must be close; the running average is stuck near the
	// lifetime mean (~0.45).
	if math.Abs(tracking-0.85) > 0.12 {
		t.Errorf("constant-gamma estimate = %.3f, want ≈ 0.85", tracking)
	}
	if averaging > 0.7 {
		t.Errorf("running-average estimate = %.3f — should lag well below the true 0.85", averaging)
	}
	if !(tracking > averaging) {
		t.Errorf("tracking (%v) must exceed averaging (%v) after upward drift", tracking, averaging)
	}
}

// driftingParticipant is a simulated participant whose error
// probability changes over time — the time-varying annotator accuracy scenario the paper
// cites (Donmez et al., SDM 2010) as motivation for sequential
// estimation. Before SwitchAfter answers it errs with probability
// Before; afterwards with probability After.
type driftingParticipant struct {
	ID          string
	Before      float64
	After       float64
	SwitchAfter int
	answered    int
	rng         *rand.Rand
}

// newDriftingParticipant creates a drifting participant.
func newDriftingParticipant(id string, before, after float64, switchAfter int, seed int64) *driftingParticipant {
	return &driftingParticipant{
		ID: id, Before: before, After: after, SwitchAfter: switchAfter,
		rng: rand.New(rand.NewSource(seed)),
	}
}

// ErrorProb returns the participant's current true error probability.
func (d *driftingParticipant) ErrorProb() float64 {
	if d.answered < d.SwitchAfter {
		return d.Before
	}
	return d.After
}

// Answer produces the participant's answer to a task whose true label
// is trueLabel, advancing the drift clock.
func (d *driftingParticipant) Answer(labels []string, trueLabel string) Answer {
	p := d.ErrorProb()
	d.answered++
	if d.rng.Float64() >= p {
		return Answer{Participant: d.ID, Label: trueLabel}
	}
	wrong := make([]string, 0, len(labels)-1)
	for _, l := range labels {
		if l != trueLabel {
			wrong = append(wrong, l)
		}
	}
	if len(wrong) == 0 {
		return Answer{Participant: d.ID, Label: trueLabel}
	}
	return Answer{Participant: d.ID, Label: wrong[d.rng.Intn(len(wrong))]}
}
