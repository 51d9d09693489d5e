package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// figure5 regenerates Figure 5: online EM over ten participants with the
// error probabilities of Section 7.2 answering 1000 four-answer queries,
// against the truth, batch EM and two other step-size schedules.
func figure5(t *table) error {
	const queries, trace, seed = 1000, 100, 7
	probs := []float64{0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9}
	labels := []string{"congestion", "no congestion", "accident", "roadworks"}

	rng := rand.New(rand.NewSource(seed))
	sims := make([]*crowd.SimulatedParticipant, len(probs))
	ids := make([]string, len(probs))
	for i, p := range probs {
		ids[i] = fmt.Sprintf("p%d", i+1)
		sims[i] = crowd.NewSimulatedParticipant(ids[i], p, rng.Int63())
	}
	est := crowd.NewEstimator(crowd.EstimatorOptions{})

	fmt.Fprintf(t.out, "Figure 5 — online EM estimation of participant quality\n")
	fmt.Fprintf(t.out, "%d participants, 4 answers, %d queries, p̂₀ = 0.25\n\n", len(probs), queries)

	var tasks []crowd.Task // retained for the batch-EM comparison
	peaked := 0
	for q := 1; q <= queries; q++ {
		truth := labels[rng.Intn(len(labels))]
		task := crowd.Task{ID: fmt.Sprintf("q%d", q), Labels: labels}
		for _, sp := range sims {
			task.Answers = append(task.Answers, sp.Answer(labels, truth))
		}
		tasks = append(tasks, task)
		v, err := est.Process(task)
		if err != nil {
			return err
		}
		if v.Peaked(0.99) {
			peaked++
		}
		if q%trace == 0 {
			fmt.Fprintf(t.out, "after %4d queries:", q)
			for _, id := range ids {
				fmt.Fprintf(t.out, " %.2f", est.ErrorProb(id))
			}
			fmt.Fprintln(t.out)
		}
	}

	fmt.Fprintf(t.out, "\nfinal estimates vs truth (relative error):\n")
	w := t.grid("participant\ttrue p\testimate\trel. error")
	for i, id := range ids {
		got := est.ErrorProb(id)
		rel := (got - probs[i]) / probs[i]
		fmt.Fprintf(w, "%s\t%.2f\t%s\t%+.1f%%\n", id, probs[i], t.score(id, "estimate", "%.3f", got), 100*rel)
	}
	if err := w.Flush(); err != nil {
		return err
	}

	fmt.Fprintf(t.out, "\npeaked posteriors (max > 0.99): %s of %d queries (paper: 94%%)\n",
		t.score("posteriors", "peaked %", "%.1f%%", 100*float64(peaked)/queries), queries)

	ordered := true
	for i := 0; i+1 < len(ids); i++ {
		ordered = ordered && (probs[i+1]-probs[i] < 0.04 || est.ErrorProb(ids[i]) < est.ErrorProb(ids[i+1]))
	}
	fmt.Fprintf(t.out, "quality ordering correct (ignoring near-ties): %v\n", ordered)

	mae := func(estimate func(id string) float64) float64 {
		var sum float64
		for i, id := range ids {
			sum += math.Abs(estimate(id) - probs[i])
		}
		return sum / float64(len(ids))
	}

	// Batch EM revisits every stored answer per iteration: similar
	// accuracy, unusable on an unbounded stream.
	batch, iters, err := crowd.BatchEM(tasks, crowd.EstimatorOptions{}, 50, 1e-5)
	if err != nil {
		return err
	}
	fmt.Fprintf(t.out, "\nbatch EM comparison: %d iterations over %d stored tasks\n", iters, len(tasks))
	fmt.Fprintf(t.out, "mean absolute error: online %s, batch %s\n",
		t.score("MAE", "online", "%.4f", mae(est.ErrorProb)),
		t.score("MAE", "batch", "%.4f", mae(func(id string) float64 { return batch[id] })))
	fmt.Fprintf(t.out, "online EM memory: O(participants); batch EM memory: O(all answers)\n")

	// Read literally (weight on the NEW posterior) the paper's
	// γ_t = t/(t+1) cannot converge; 1/(t+1) is the default reading.
	fmt.Fprintf(t.out, "\ngamma schedule ablation (same %d queries, stationary participants):\n", queries)
	schedules := []struct {
		name  string
		gamma crowd.GammaFunc
	}{
		{"1/(t+1) running average", crowd.DefaultGamma},
		{"t/(t+1) paper schedule", crowd.PaperGamma},
		{"constant 0.05", crowd.ConstantGamma(0.05)},
	}
	for _, sched := range schedules {
		est2 := crowd.NewEstimator(crowd.EstimatorOptions{Gamma: sched.gamma})
		for _, task := range tasks {
			if _, err := est2.Process(task); err != nil {
				return err
			}
		}
		fmt.Fprintf(t.out, "  %-24s MAE %.4f\n", sched.name, mae(est2.ErrorProb))
	}
	return nil
}

// figure6 regenerates Figure 6: the query execution engine's step
// latencies per connection type, averaged over ten executions.
func figure6(t *table) error {
	const runs, seed = 10, 3
	fmt.Fprintf(t.out, "Figure 6 — crowdsourcing query execution engine latency\n")
	fmt.Fprintf(t.out, "averages over %d task executions per connection type\n\n", runs)

	w := t.grid("network\ttrigger\tpush notification\tcommunication\tend-to-end")
	for _, network := range qee.Networks {
		engine := qee.NewEngine(qee.Options{Seed: seed})
		id := fmt.Sprintf("%s-w0", network)
		if err := engine.Connect(qee.Device{
			Participant: crowd.Participant{ID: id},
			Network:     network,
			Respond: func(qee.Query) (string, time.Duration) {
				return "congestion", 0 // human response time excluded, as in the paper
			},
		}); err != nil {
			return err
		}
		var execs []*qee.Execution
		for r := 0; r < runs; r++ {
			exec, err := engine.Execute(context.Background(), qee.Query{
				ID:      fmt.Sprintf("q%d", r),
				Answers: []string{"congestion", "no congestion"},
			}, []crowd.Participant{{ID: id}})
			if err != nil {
				return err
			}
			execs = append(execs, exec)
		}
		for _, avg := range qee.AverageByNetwork(execs) {
			row := avg.Network.String()
			ms := func(metric string, d time.Duration) string {
				return t.score(row, metric, "%.0f", float64(d.Milliseconds())) + " ms"
			}
			fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", row,
				ms("trigger", avg.Trigger), ms("push notification", avg.Push),
				ms("communication", avg.Comm), ms("end-to-end", avg.Trigger+avg.Push+avg.Comm))
		}
	}
	return w.Flush()
}

// volunteer answers through its error model when it can see the task
// site and guesses when it cannot.
type volunteer struct {
	pos     geo.Point
	sim     *crowd.SimulatedParticipant
	guess   *rand.Rand
	network qee.Network
}

// selection compares the worker-selection policies Section 5.3 leaves
// open (location, reliability, deadline admission) on the same tasks,
// scored against the city's congestion field. Volunteers loiter around
// intersections and see congestion only within a visibility radius.
func selection(t *table) error {
	const (
		participants = 400
		tasks        = 400
		visibility   = 800.0 // meters
		deadline     = 3 * time.Second
		seed         = 11
	)
	rng := rand.New(rand.NewSource(seed))
	city, err := dublin.NewCity(dublin.Config{Seed: seed, NumBuses: 1, NumSensors: 200})
	if err != nil {
		return err
	}
	inters := city.Intersections()
	vols := make(map[string]*volunteer, participants)
	roster := crowd.NewRoster()
	for i := 0; i < participants; i++ { // the draw order below fixes the seeded roster
		at := inters[rng.Intn(len(inters))].Pos
		p := crowd.Participant{ID: fmt.Sprintf("vol%03d", i), Online: true, Pos: geo.At(
			at.Lat+(rng.Float64()*2-1)*0.003, // ±330 m
			at.Lon+(rng.Float64()*2-1)*0.005, // ±330 m at Dublin's latitude
		)}
		errProb := 0.05 + rng.Float64()*0.45
		p.ComputeTime = time.Duration(1+rng.Intn(5)) * time.Second
		vols[p.ID] = &volunteer{p.Pos, crowd.NewSimulatedParticipant(p.ID, errProb, rng.Int63()),
			rand.New(rand.NewSource(rng.Int63())), qee.Network(rng.Intn(3))}
		if err := roster.Register(p); err != nil {
			return err
		}
	}
	profile := qee.PaperProfile()
	commEstimate := func(p crowd.Participant) time.Duration {
		return profile.Push[vols[p.ID].network] + profile.Comm[vols[p.ID].network]
	}
	labels := []string{traffic.Positive, traffic.Negative}

	policies := []struct {
		name string
		mk   func(est *crowd.Estimator) crowd.Selection
	}{
		{"all", func(*crowd.Estimator) crowd.Selection { return crowd.SelectAll }},
		{"nearest-5", func(*crowd.Estimator) crowd.Selection { return crowd.SelectNearest(5, 0) }},
		{"nearest-10", func(*crowd.Estimator) crowd.Selection { return crowd.SelectNearest(10, 0) }},
		{"reliable-5 (no location)", func(est *crowd.Estimator) crowd.Selection { return crowd.SelectMostReliable(5, est) }},
		{"nearest-15 then reliable-5", func(est *crowd.Estimator) crowd.Selection {
			return func(candidates []crowd.Participant, pos geo.Point) []crowd.Participant {
				shortlist := crowd.SelectNearest(15, 0)(candidates, pos)
				return crowd.SelectMostReliable(5, est)(shortlist, pos)
			}
		}},
		{"nearest-10 + deadline test", func(*crowd.Estimator) crowd.Selection {
			return crowd.DeadlineFeasible(crowd.SelectNearest(10, 0), commEstimate, deadline)
		}},
	}

	fmt.Fprintf(t.out, "worker selection policies — %d volunteers, %d tasks, visibility %.0f m\n\n",
		participants, tasks, visibility)
	w := t.grid("policy\tqueried/task\taccuracy\tmean confidence")
	for _, p := range policies {
		taskRng := rand.New(rand.NewSource(seed + 99)) // same tasks for every policy
		est := crowd.NewEstimator(crowd.EstimatorOptions{})
		sel := p.mk(est)
		queried, correct := 0, 0
		var confidence float64
		for i := 0; i < tasks; i++ {
			in := inters[taskRng.Intn(len(inters))]
			at := 7*3600 + taskRng.Int63n(2*3600) // rush hour snapshot
			truth := traffic.Negative
			if city.IsCongested(in.Pos, rtec.Time(at)) {
				truth = traffic.Positive
			}
			panel := sel(roster.Online(), in.Pos)
			queried += len(panel)
			task := crowd.Task{ID: fmt.Sprintf("t%d", i), Labels: labels}
			for _, member := range panel {
				v := vols[member.ID]
				if geo.Distance(v.pos, in.Pos) > visibility {
					// Too far to see the street: a pure guess.
					task.Answers = append(task.Answers, crowd.Answer{Participant: member.ID, Label: labels[v.guess.Intn(2)]})
				} else {
					task.Answers = append(task.Answers, v.sim.Answer(labels, truth))
				}
			}
			if len(task.Answers) == 0 {
				continue
			}
			verdict, err := est.Process(task)
			if err != nil {
				return err
			}
			confidence += verdict.Confidence
			if verdict.Best == truth {
				correct++
			}
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\n", p.name,
			t.score(p.name, "queried/task", "%.1f", float64(queried)/tasks),
			t.score(p.name, "accuracy", "%.1f%%", 100*float64(correct)/tasks),
			t.score(p.name, "mean confidence", "%.3f", confidence/tasks))
	}
	return w.Flush()
}
