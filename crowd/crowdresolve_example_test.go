package crowd_test

import (
	"context"
	"fmt"
	"log"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Crowdresolve: the crowdsourcing loop in isolation. A scripted
// scenario produces a source disagreement (a faulty bus reports
// congestion at a free-flowing intersection); the query execution
// engine pushes the question to nearby volunteers over 2G/3G/WiFi,
// online EM fuses their answers, and the verdict — fed back as a crowd
// event — makes the CEP engine flag the bus as noisy, after which the
// self-adaptive busCongestion definition (rule-set 3′) discards its
// reports.
// Run it with: go test -run Example_crowdresolve -v ./crowd
func Example_crowdresolve() {
	interPos := geo.At(53.3471, -6.2621)
	parnellPos := geo.At(53.3528, -6.2634)
	registry, err := traffic.NewRegistry([]traffic.Intersection{
		{ID: "oconnell-bridge", Pos: interPos, Sensors: []string{"s1"}},
		{ID: "parnell-square", Pos: parnellPos, Sensors: []string{"s2"}},
	}, 120)
	if err != nil {
		log.Fatal(err)
	}
	defs, err := traffic.Build(traffic.Config{
		Registry:    registry,
		NoisyPolicy: traffic.CrowdValidated, // rule-set (4)
		Adaptive:    true,                   // rule-set (3′)
	})
	if err != nil {
		log.Fatal(err)
	}
	engine, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 1800, Step: 600})
	if err != nil {
		log.Fatal(err)
	}

	// --- the disagreement -------------------------------------------------
	// SCATS says free flow; the faulty bus insists on congestion.
	if err := engine.Input(
		traffic.Traffic(60, "s1", "oconnell-bridge", "A1", 0.08, 1200),
		traffic.Move(300, "bus33009", "r10", "DublinBus", 30, interPos, 0, true),
	); err != nil {
		log.Fatal(err)
	}
	res, err := engine.Query(600)
	if err != nil {
		log.Fatal(err)
	}
	var disagreement *rtec.Event
	for i, ev := range res.Fresh {
		if ev.Type == traffic.Disagree {
			disagreement = &res.Fresh[i]
		}
	}
	if disagreement == nil {
		log.Fatal("expected a disagree event")
	}
	bus, _ := disagreement.Str("bus")
	val, _ := disagreement.Str("value")
	fmt.Printf("CEP detected: disagree(bus=%s, intersection=%s, %s) at t=%d\n",
		bus, disagreement.Key, val, int64(disagreement.Time))
	fmt.Printf("noisy(%s) before crowd input: %v\n\n", bus, res.HoldsAt(traffic.Noisy, bus, 600))

	// --- the crowdsourcing round ------------------------------------------
	qeeEngine := qee.NewEngine(qee.Options{Seed: 42})
	roster := crowd.NewRoster()
	estimator := crowd.NewEstimator(crowd.EstimatorOptions{})

	// Five volunteers around the bridge, one of them unreliable. The
	// ground truth is "no congestion".
	volunteers := []struct {
		id        string
		errorProb float64
	}{{"anna", 0.05}, {"brian", 0.1}, {"ciara", 0.1}, {"dara", 0.2}, {"eoin", 0.85}}
	for i, v := range volunteers {
		id, seed := v.id, int64(i+1)
		sim := crowd.NewSimulatedParticipant(id, v.errorProb, seed)
		if err := roster.Register(crowd.Participant{ID: id, Pos: interPos, Online: true}); err != nil {
			log.Fatal(err)
		}
		if err := qeeEngine.Connect(qee.Device{
			Participant: crowd.Participant{ID: id, Pos: interPos},
			Network:     qee.Network(int(seed) % 3),
			Respond: func(q qee.Query) (string, time.Duration) {
				return sim.Answer(q.Answers, traffic.Negative).Label, time.Second
			},
		}); err != nil {
			log.Fatal(err)
		}
	}

	selected := crowd.SelectNearest(5, 0)(roster.Online(), interPos)
	exec, err := qeeEngine.Execute(context.Background(), qee.Query{
		ID:       "oconnell-bridge@600",
		Question: "Is there a traffic congestion at O'Connell Bridge?",
		Answers:  []string{traffic.Positive, traffic.Negative},
		Pos:      interPos,
	}, selected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("map phase answers:")
	for _, a := range exec.Answers {
		fmt.Printf("   %s → %s\n", a.Participant, a.Label)
	}
	fmt.Printf("reduce phase counts: %v\n", exec.Counts)
	// Each worker's trigger, push and communication latencies (Figure 6):
	// sampled as its map task runs, concurrently with the others, each a
	// pure function of the engine seed, the query, the worker and the
	// step, so the same on every run.
	for _, t := range exec.Timings {
		fmt.Printf("   %-6s %-4s trigger %v, push %v, communication %v\n", t.Participant, t.Network,
			t.Trigger.Round(time.Millisecond), t.Push.Round(time.Millisecond), t.Comm.Round(time.Millisecond))
	}

	verdict, err := estimator.Process(exec.Task(nil))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nonline EM verdict: %q with confidence %.3f\n", verdict.Best, verdict.Confidence)

	// Rewards: participants earn in proportion to how strongly the
	// fused posterior backs their answer ("a participant's quality may
	// be a factor in the computation of the reward", Section 7.2).
	ledger, err := crowd.NewLedger(crowd.ProportionalReward(0.10)) // €0.10 base
	if err != nil {
		log.Fatal(err)
	}
	if err := ledger.Credit(exec.Task(nil), verdict); err != nil {
		log.Fatal(err)
	}
	fmt.Println("rewards for this task:")
	for _, b := range ledger.Balances() {
		fmt.Printf("   %-6s €%.3f\n", b.Participant, b.Earned)
	}

	// --- feeding the verdict back ------------------------------------------
	crowdEv := traffic.CrowdVerdict(660, "oconnell-bridge", verdict.Best)
	crowdEv.Attrs["lon"] = interPos.Lon
	crowdEv.Attrs["lat"] = interPos.Lat
	// The same faulty bus drives on and claims congestion at Parnell
	// Square too (SCATS there agrees with the crowd: free flow).
	if err := engine.Input(
		crowdEv,
		traffic.Traffic(650, "s2", "parnell-square", "A1", 0.06, 1300),
		traffic.Move(700, "bus33009", "r10", "DublinBus", 30, parnellPos, 0, true),
	); err != nil {
		log.Fatal(err)
	}
	res, err = engine.Query(1200)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter crowd feedback (query time 1200):\n")
	fmt.Printf("   noisy(%s): %v for %v\n", bus,
		res.HoldsAt(traffic.Noisy, bus, 1200), res.Intervals(traffic.Noisy, bus))
	fmt.Printf("   busCongestion(parnell-square): %v — the report at t=700 was discarded (rule-set 3')\n",
		res.Intervals(traffic.BusCongestion, "parnell-square"))
	fmt.Printf("   busCongestion(oconnell-bridge): %v — the pre-verdict initiation persists by inertia\n",
		res.Intervals(traffic.BusCongestion, "oconnell-bridge"))
	// Output:
	// CEP detected: disagree(bus=bus33009, intersection=oconnell-bridge, positive) at t=300
	// noisy(bus33009) before crowd input: false
	//
	// map phase answers:
	//    anna → negative
	//    brian → negative
	//    ciara → negative
	//    dara → negative
	//    eoin → positive
	// reduce phase counts: map[negative:4 positive:1]
	//    anna   3G   trigger 38ms, push 160ms, communication 179ms
	//    brian  WiFi trigger 52ms, push 226ms, communication 185ms
	//    ciara  2G   trigger 38ms, push 435ms, communication 381ms
	//    dara   3G   trigger 43ms, push 154ms, communication 156ms
	//    eoin   WiFi trigger 49ms, push 170ms, communication 189ms
	//
	// online EM verdict: "negative" with confidence 0.964
	// rewards for this task:
	//    anna   €0.096
	//    brian  €0.096
	//    ciara  €0.096
	//    dara   €0.096
	//    eoin   €0.004
	//
	// after crowd feedback (query time 1200):
	//    noisy(bus33009): true for [301, 1201)
	//    busCongestion(parnell-square): ∅ — the report at t=700 was discarded (rule-set 3')
	//    busCongestion(oconnell-bridge): [301, 1201) — the pre-verdict initiation persists by inertia
}
