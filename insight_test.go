package insight

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

func testCity(t *testing.T) *dublin.City {
	t.Helper()
	city, err := dublin.NewCity(dublin.Config{
		Seed:             42,
		NumBuses:         60,
		NumSensors:       60,
		Hotspots:         15,
		NoisyBusFraction: 0.25, // plenty of disagreement material
	})
	if err != nil {
		t.Fatal(err)
	}
	return city
}

func testParticipants(city *dublin.City, n int) []SimParticipant {
	inters := city.Intersections()
	out := make([]SimParticipant, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, SimParticipant{
			ID:        "vol" + string(rune('A'+i)),
			Pos:       inters[i%len(inters)].Pos,
			ErrorProb: 0.1,
			Network:   qee.Network(i % 3),
		})
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing city must error")
	}
}

// TestEndToEndMorningRush drives the full Figure 1 pipeline over a
// synthetic morning rush hour and checks that every component
// produces output: congestion CEs, disagreements, crowdsourcing
// rounds, noisy-bus adaptation and the GP sparsity map.
func TestEndToEndMorningRush(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{
		City:          city,
		Seed:          7,
		WorkingMemory: 1800,
		Step:          900,
		Participants:  testParticipants(city, 12),
		Traffic: traffic.Config{
			NoisyPolicy: traffic.Pessimistic,
			Adaptive:    true,
		},
		CrowdSelection: crowd.SelectNearest(5, 0),
	})
	if err != nil {
		t.Fatal(err)
	}

	const from, until = 7 * 3600, 9 * 3600 // 07:00–09:00
	var reports []*Report
	err = sys.Run(context.Background(), from, until, func(r *Report) error {
		reports = append(reports, r)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 8 {
		t.Fatalf("reports = %d, want 8 steps", len(reports))
	}

	var totalFed, totalCongested, totalDisagreements, totalCrowd, totalAlerts, totalNoisy int
	for _, r := range reports {
		totalFed += r.FedEvents
		totalCongested += len(r.CongestedIntersections)
		totalDisagreements += len(r.Disagreements)
		totalCrowd += len(r.CrowdRounds)
		totalAlerts += len(r.Alerts)
		totalNoisy += len(r.NoisyBuses)
		if r.Summary() == "" || r.String() == "" {
			t.Error("report rendering empty")
		}
		if r.Stats.InputEvents == 0 && r.FedEvents > 0 {
			// Stats come from the engines: they should have seen the
			// window's events.
			t.Error("engine stats empty despite fed events")
		}
	}
	if totalFed < 10000 {
		t.Errorf("fed %d SDEs over 2 h, expected >> 10k", totalFed)
	}
	if totalCongested == 0 {
		t.Error("no congested intersections during rush hour")
	}
	if totalDisagreements == 0 {
		t.Error("no source disagreements despite noisy buses")
	}
	if totalCrowd == 0 {
		t.Error("no crowdsourcing rounds triggered")
	}
	if totalNoisy == 0 {
		t.Error("no buses flagged noisy under the pessimistic policy")
	}
	if totalAlerts == 0 {
		t.Error("no operator alerts")
	}

	// The estimator has processed the crowd rounds.
	if len(sys.Estimator().Participants()) == 0 {
		t.Error("estimator saw no participants")
	}
	if sys.Definitions() == nil || len(sys.Definitions().Names()) == 0 {
		t.Error("compiled definitions must be exposed")
	}

	// Crowd verdicts are mostly correct given reliable participants.
	correct, total := 0, 0
	for _, r := range reports {
		for _, c := range r.CrowdRounds {
			in, _ := sys.Registry().Lookup(c.Intersection)
			want := traffic.Negative
			if city.IsCongested(in.Pos, c.QueryTime) {
				want = traffic.Positive
			}
			total++
			if c.Verdict.Best == want {
				correct++
			}
		}
	}
	if total > 0 && float64(correct)/float64(total) < 0.7 {
		t.Errorf("crowd verdict accuracy %d/%d, want ≥ 70%%", correct, total)
	}

	// Traffic modelling over the ingested readings.
	est, err := sys.SparsityMap(2, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(est.Values) != city.Graph().NumVertices() {
		t.Errorf("sparsity map covers %d of %d junctions", len(est.Values), city.Graph().NumVertices())
	}
	if est.Observations == 0 || len(est.ObservedVertices) == 0 {
		t.Error("sparsity map used no observations")
	}
	// Unobserved junctions got estimates too (the whole point).
	if len(est.ObservedVertices) >= city.Graph().NumVertices() {
		t.Error("no unobserved junctions — sparsity scenario broken")
	}

	// Crowd-augmented traffic model: with crowd rounds recorded, the
	// verdict pseudo-readings must actually influence the estimates.
	if totalCrowd > 0 {
		withCrowd, err := sys.FlowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 100, CrowdNoise: 10000})
		if err != nil {
			t.Fatal(err)
		}
		if withCrowd.Observations <= est.Observations {
			t.Errorf("crowd-augmented map used %d observations, sensor-only %d",
				withCrowd.Observations, est.Observations)
		}
		differs := false
		for i := range est.Values {
			if est.Values[i] != withCrowd.Values[i] {
				differs = true
				break
			}
		}
		if !differs {
			t.Error("crowd pseudo-readings had no effect on the flow map")
		}
	}
}

func TestSparsityMapRequiresData(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{City: city})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.SparsityMap(2, 1, 100); err == nil {
		t.Error("sparsity map without readings must error")
	}
}

func TestSystemWithoutCrowd(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{City: city, WorkingMemory: 1200, Step: 600})
	if err != nil {
		t.Fatal(err)
	}
	var crowdRounds int
	err = sys.Run(context.Background(), 8*3600, 9*3600, func(r *Report) error {
		crowdRounds += len(r.CrowdRounds)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if crowdRounds != 0 {
		t.Error("crowdsourcing must stay disabled without participants")
	}
}

func TestRunContextCancellation(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{City: city})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := streams.LiveBatches()
	if err := sys.Run(ctx, 0, 7200, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	if got := streams.LiveBatches(); got != before {
		t.Errorf("live batches = %d, want %d: the collection of a run that never started was kept", got, before)
	}
}

func TestQueryTimeIDRoundTrip(t *testing.T) {
	id := queryTimeID("int0042", 12345)
	tm, ok := parseQueryTime(id)
	if !ok || tm != 12345 {
		t.Errorf("parseQueryTime(%q) = %d, %v", id, int64(tm), ok)
	}
	if _, ok := parseQueryTime("no-marker"); ok {
		t.Error("missing marker must report !ok")
	}
	if _, ok := parseQueryTime("x@notanumber"); ok {
		t.Error("bad number must report !ok")
	}
}

// Replaying the recorded stream must reproduce the live run exactly:
// in arrival order, shuffled, and after a round trip through the CSV
// exports — every recording reaches the engines through the one
// SDE-to-batch converter.
func TestReplayMatchesLive(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	run := func(recorded []dublin.SDE) []*Report {
		t.Helper()
		sys, err := New(Config{
			City:          testCity(t),
			WorkingMemory: 1800,
			Step:          900,
			Traffic:       traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic},
		})
		if err != nil {
			t.Fatal(err)
		}
		var reports []*Report
		note := func(r *Report) error {
			reports = append(reports, r)
			return nil
		}
		if recorded == nil {
			err = sys.Run(context.Background(), from, until, note)
		} else {
			err = sys.RunReplay(context.Background(), recorded, from, until, note)
		}
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	same := func(label string, got, want []*Report) {
		t.Helper()
		if len(got) != len(want) || len(want) == 0 {
			t.Fatalf("%s: %d reports, live %d", label, len(got), len(want))
		}
		for i := range want {
			if g, w := got[i].Fingerprint(), want[i].Fingerprint(); g != w {
				t.Errorf("%s: step %d differs:\n  replay: %s\n  live:   %s", label, i, g, w)
			}
		}
	}

	before := streams.LiveBatches()
	live := run(nil)
	recorded := testCity(t).Collect(from, until)
	same("arrival-ordered replay", run(recorded), live)

	shuffled := append([]dublin.SDE(nil), recorded...)
	rand.New(rand.NewSource(3)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	// Only the order of same-arrival SDEs survives as a difference, and
	// recognition does not depend on it.
	same("shuffled replay", run(shuffled), live)

	// The CSV exports keep six decimals of the coordinates, four of the
	// density and two of the flow; on this city the rounding moves no
	// reading across a threshold or a region border, so the read-back
	// must replay to the live run's reports as well.
	var busCSV, scatsCSV bytes.Buffer
	if err := dublin.WriteBusCSV(&busCSV, recorded); err != nil {
		t.Fatal(err)
	}
	if err := dublin.WriteScatsCSV(&scatsCSV, recorded); err != nil {
		t.Fatal(err)
	}
	buses, err := dublin.ReadBusCSV(&busCSV)
	if err != nil {
		t.Fatal(err)
	}
	scats, err := dublin.ReadScatsCSV(&scatsCSV)
	if err != nil {
		t.Fatal(err)
	}
	readBack := append(buses, scats...) // bus file first: not arrival order
	if len(readBack) != len(recorded) {
		t.Fatalf("CSV round trip kept %d of %d SDEs", len(readBack), len(recorded))
	}
	same("CSV replay", run(readBack), live)

	if got := streams.LiveBatches(); got != before {
		t.Errorf("live batches = %d, want %d: the runs leaked transport buffers", got, before)
	}

	t.Run("malformed", func(t *testing.T) { replayRejectsMalformed(t, recorded, from) })
}

// replayRejectsMalformed: a recording the columnar schema cannot carry
// must be refused with an error — not panic, and not be routed silently
// with cells missing.
func replayRejectsMalformed(t *testing.T, good []dublin.SDE, from Time) {
	until := from + 900
	var bus, sensor int
	for i, sde := range good {
		if sde.Event.Type == traffic.MoveType {
			bus = i
		} else {
			sensor = i
		}
	}
	// mutate copies the recording with a private attribute map for SDE i.
	mutate := func(i int, fn func(ev *rtec.Event)) []dublin.SDE {
		out := append([]dublin.SDE(nil), good...)
		attrs := make(map[string]any, len(out[i].Event.Attrs))
		for k, v := range out[i].Event.Attrs {
			attrs[k] = v
		}
		out[i].Event.Attrs = attrs
		fn(&out[i].Event)
		return out
	}
	cases := []struct {
		name string
		sdes []dublin.SDE
		want string // substring of the error
	}{
		{"unknown type", mutate(bus, func(ev *rtec.Event) { ev.Type = "tram" }), `unknown event type "tram"`},
		{"crowd SDE on an input stream", mutate(sensor, func(ev *rtec.Event) { ev.Type = traffic.CrowdType }), "unknown event type"},
		{"slice-valued attribute", mutate(bus, func(ev *rtec.Event) { ev.Attrs["delay"] = []int64{1, 2} }), `attribute "delay" holds a []int64`},
		{"map-valued attribute", mutate(sensor, func(ev *rtec.Event) { ev.Attrs["flow"] = map[string]any{} }), `attribute "flow" holds a map`},
		{"wrong scalar kind", mutate(sensor, func(ev *rtec.Event) { ev.Attrs["density"] = "high" }), `attribute "density" holds a string`},
		{"missing key", mutate(bus, func(ev *rtec.Event) { delete(ev.Attrs, "congested") }), `missing attribute "congested"`},
		{"missing coordinates", mutate(sensor, func(ev *rtec.Event) { delete(ev.Attrs, "lon") }), `missing attribute "lon"`},
		{"attribute outside the schema", mutate(bus, func(ev *rtec.Event) { ev.Attrs["speed"] = 3.5 }), `attribute "speed" is not part of the move schema`},
		{"negative arrival", func() []dublin.SDE {
			out := append([]dublin.SDE(nil), good...)
			out[bus].Arrival = -1
			return out
		}(), "negative arrival"},
	}
	before := streams.LiveBatches()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys, err := New(Config{City: testCity(t)})
			if err != nil {
				t.Fatal(err)
			}
			err = sys.RunReplay(context.Background(), tc.sdes, from, until, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RunReplay error = %v, want one mentioning %q", err, tc.want)
			}
			if got := streams.LiveBatches(); got != before {
				t.Errorf("live batches = %d, want %d: the refused conversion kept buffers", got, before)
			}
		})
	}
}

// A full simulated day at small scale: the system must stay healthy —
// bounded engine state, no error, sane reports — across 96 query
// times including both rush hours and the quiet night.
func TestFullDaySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	city, err := dublin.NewCity(dublin.Config{
		Seed: 9, NumBuses: 40, NumSensors: 40, NoisyBusFraction: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{
		City:          city,
		Seed:          9,
		WorkingMemory: 1800,
		Step:          900,
		Participants:  testParticipants(city, 6),
		Traffic:       traffic.Config{Adaptive: true, NoisyPolicy: traffic.Pessimistic},
	})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	var rushCongested, nightCongested int
	err = sys.Run(context.Background(), 0, 24*3600, func(r *Report) error {
		steps++
		hour := float64(r.Q%(24*3600)) / 3600
		if hour >= 7.5 && hour <= 9.5 {
			rushCongested += len(r.CongestedIntersections)
		}
		if hour >= 2 && hour <= 4 {
			nightCongested += len(r.CongestedIntersections)
		}
		// The engine must not hoard SDEs beyond its window.
		if r.Stats.InputEvents > 40*90+40*5+50 { // fleet*window/25s + sensors*window/360s + crowd slack
			return fmt.Errorf("window holds %d SDEs — retention leak?", r.Stats.InputEvents)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if steps != 96 {
		t.Errorf("steps = %d, want 96", steps)
	}
	if !(rushCongested > nightCongested) {
		t.Errorf("rush hour (%d) must out-congest the night (%d)", rushCongested, nightCongested)
	}
}

// A night-time incident must surface as an unusualCongestion alert —
// the INSIGHT project's headline use case.
func TestIncidentDetection(t *testing.T) {
	// Find a seed/incident combination where an incident strikes a
	// SCATS intersection in the quiet hours.
	for seed := int64(1); seed <= 12; seed++ {
		city, err := dublin.NewCity(dublin.Config{
			Seed: seed, NumBuses: 5, NumSensors: 80, Incidents: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		reg, err := city.Registry(150)
		if err != nil {
			t.Fatal(err)
		}
		for _, inc := range city.Incidents() {
			hour := float64(inc.Start%(24*3600)) / 3600
			if hour < 0.5 || hour > 5 { // want a clean night incident
				continue
			}
			near := reg.CloseTo(inc.Center)
			if len(near) == 0 {
				continue // no SCATS intersection under the incident
			}
			// Monitor around the incident.
			sys, err := New(Config{
				City:          city,
				WorkingMemory: 1800,
				Step:          900,
			})
			if err != nil {
				t.Fatal(err)
			}
			var unusual []string
			from := inc.Start - 1800
			until := inc.Start + inc.Duration
			err = sys.Run(context.Background(), from, until, func(r *Report) error {
				unusual = append(unusual, r.UnusualCongestion...)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(unusual) == 0 {
				t.Fatalf("seed %d: night incident at %v not flagged as unusual", seed, inc.Center)
			}
			return // scenario found and verified
		}
	}
	t.Skip("no night incident hit a SCATS intersection across the tried seeds")
}
