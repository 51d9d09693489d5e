package traffic

import (
	"fmt"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
)

var (
	posI1   = geo.At(53.3500, -6.2600)
	posI2   = geo.At(53.3800, -6.2000)
	posPark = geo.At(53.3200, -6.3300)
	nearI1  = geo.At(53.3503, -6.2600) // ~33 m from i1
	nearI2  = geo.At(53.3803, -6.2000)
	nearPrk = geo.At(53.3203, -6.3300)
	farAway = geo.At(53.4000, -6.1600)
)

func testRegistry(t *testing.T) *Registry {
	t.Helper()
	reg, err := NewRegistry([]Intersection{
		{ID: "i1", Pos: posI1, Sensors: []string{"s1", "s2"}},
		{ID: "i2", Pos: posI2, Sensors: []string{"s3"}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// newEngine builds an engine over the Dublin set for cfg, with the given
// internal types declared outputs as well, so a test can read them.
func newEngine(t *testing.T, cfg Config, outputs ...string) *rtec.Engine {
	t.Helper()
	if cfg.Registry == nil {
		cfg.Registry = testRegistry(t)
	}
	defs, err := BuildWith(cfg, func(b *rtec.Builder) { b.Output(outputs...) })
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 3600})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func query(t *testing.T, e *rtec.Engine, q rtec.Time) *rtec.Result {
	t.Helper()
	res, err := e.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustInput(t *testing.T, e *rtec.Engine, evs ...rtec.Event) {
	t.Helper()
	if err := e.Input(evs...); err != nil {
		t.Fatal(err)
	}
}

// congested / free sensor readings relative to the default thresholds
// (density 0.35, flow 600).
func congestedReading(t rtec.Time, sensor, inter string) rtec.Event {
	return Traffic(t, sensor, inter, "A1", 0.60, 300)
}

func freeReading(t rtec.Time, sensor, inter string) rtec.Event {
	return Traffic(t, sensor, inter, "A1", 0.10, 1200)
}

func TestBuildRequiresRegistry(t *testing.T) {
	if _, err := Build(Config{}); err == nil {
		t.Error("Build without registry must error")
	}
}

func TestRegistryValidation(t *testing.T) {
	if _, err := NewRegistry(nil, 0); err == nil {
		t.Error("non-positive threshold must error")
	}
	if _, err := NewRegistry([]Intersection{{ID: ""}}, 100); err == nil {
		t.Error("empty intersection ID must error")
	}
	if _, err := NewRegistry([]Intersection{
		{ID: "x", Pos: posI1}, {ID: "x", Pos: posI2},
	}, 100); err == nil {
		t.Error("duplicate intersection ID must error")
	}
}

func TestRegistryCloseTo(t *testing.T) {
	reg := testRegistry(t)
	if got := reg.CloseTo(nearI1); len(got) != 1 || got[0].ID != "i1" {
		t.Errorf("CloseTo(nearI1) = %v", got)
	}
	if got := reg.CloseTo(farAway); len(got) != 0 {
		t.Errorf("CloseTo(farAway) = %v", got)
	}
	// Exactly at an intersection.
	if got := reg.CloseTo(posI2); len(got) != 1 || got[0].ID != "i2" {
		t.Errorf("CloseTo(posI2) = %v", got)
	}
	if in, ok := reg.Lookup("i1"); !ok || in.ID != "i1" {
		t.Error("Lookup(i1) failed")
	}
	if _, ok := reg.Lookup("zz"); ok {
		t.Error("Lookup(zz) should fail")
	}
}

// Brute-force cross-check of the spatial grid on a denser registry.
func TestRegistryCloseToMatchesBruteForce(t *testing.T) {
	var ins []Intersection
	for i := 0; i < 20; i++ {
		for j := 0; j < 10; j++ {
			ins = append(ins, Intersection{
				ID:  string(rune('a'+i)) + string(rune('0'+j)),
				Pos: geo.At(53.30+float64(i)*0.005, -6.30+float64(j)*0.01),
			})
		}
	}
	reg, err := NewRegistry(ins, 400)
	if err != nil {
		t.Fatal(err)
	}
	probes := []geo.Point{
		geo.At(53.312, -6.27), geo.At(53.35, -6.25), geo.At(53.30, -6.30),
		geo.At(53.40, -6.21), geo.At(53.33, -6.287),
	}
	for _, p := range probes {
		want := make(map[string]bool)
		for _, in := range ins {
			if geo.Close(p, in.Pos, 400) {
				want[in.ID] = true
			}
		}
		got := reg.CloseTo(p)
		if len(got) != len(want) {
			t.Fatalf("probe %v: grid found %d, brute force %d", p, len(got), len(want))
		}
		for _, in := range got {
			if !want[in.ID] {
				t.Fatalf("probe %v: unexpected %s", p, in.ID)
			}
		}
	}
}

func TestScatsCongestionRuleSet2(t *testing.T) {
	e := newEngine(t, Config{})
	mustInput(t, e,
		congestedReading(100, "s1", "i1"), // initiate
		congestedReading(460, "s1", "i1"), // still congested (inertia)
		freeReading(820, "s1", "i1"),      // terminate: both bounds crossed
	)
	res := query(t, e, 3599)
	got := res.Intervals(ScatsCongestion, "s1")
	want := rtec.List{{Start: 101, End: 821}}
	if !got.Equal(want) {
		t.Errorf("scatsCongestion = %v, want %v", got, want)
	}
}

func TestScatsCongestionTerminationEitherBound(t *testing.T) {
	// Termination has two rules: density back below the threshold OR
	// flow back above it.
	e := newEngine(t, Config{})
	mustInput(t, e,
		congestedReading(100, "s1", "i1"),
		Traffic(300, "s1", "i1", "A1", 0.10, 300), // density low, flow still low
	)
	res := query(t, e, 3599)
	if res.HoldsAt(ScatsCongestion, "s1", 400) {
		t.Error("density below threshold must terminate congestion")
	}

	e2 := newEngine(t, Config{})
	mustInput(t, e2,
		congestedReading(100, "s1", "i1"),
		Traffic(300, "s1", "i1", "A1", 0.60, 1200), // density high, flow high
	)
	res2 := query(t, e2, 3599)
	if res2.HoldsAt(ScatsCongestion, "s1", 400) {
		t.Error("flow above threshold must terminate congestion")
	}
}

func TestScatsIntCongestionRequiresNSensors(t *testing.T) {
	e := newEngine(t, Config{}) // MinCongestedSensors = 2
	mustInput(t, e,
		congestedReading(100, "s1", "i1"), // only one of i1's two sensors
	)
	res := query(t, e, 3599)
	if res.HoldsAt(ScatsIntCongestion, "i1", 200) {
		t.Error("one congested sensor of two must not congest the intersection")
	}

	mustInput(t, e, congestedReading(3700, "s2", "i1"))
	// s1's congestion from t=100 has fallen out of the next window;
	// re-assert it inside.
	mustInput(t, e, congestedReading(3650, "s1", "i1"))
	res = query(t, e, 7000)
	if !res.HoldsAt(ScatsIntCongestion, "i1", 3800) {
		t.Error("two congested sensors must congest the intersection")
	}
}

func TestScatsIntCongestionSingleSensorIntersection(t *testing.T) {
	// i2 has one sensor; the n=2 requirement is capped at the sensor
	// count.
	e := newEngine(t, Config{})
	mustInput(t, e, congestedReading(100, "s3", "i2"))
	res := query(t, e, 3599)
	if !res.HoldsAt(ScatsIntCongestion, "i2", 200) {
		t.Error("single-sensor intersection must congest with its only sensor")
	}
}

func TestBusCongestionRuleSet3(t *testing.T) {
	e := newEngine(t, Config{})
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),  // initiate at i1
		Move(500, "b2", "r11", "o7", 0, nearI1, 1, false), // a different bus terminates
		Move(600, "b3", "r12", "o7", 0, farAway, 0, true), // far from everything: no effect
	)
	res := query(t, e, 3599)
	got := res.Intervals(BusCongestion, "i1")
	want := rtec.List{{Start: 101, End: 501}}
	if !got.Equal(want) {
		t.Errorf("busCongestion(i1) = %v, want %v", got, want)
	}
	if len(res.Fluents[BusCongestion]) != 1 {
		t.Errorf("unexpected busCongestion instances: %v", res.Fluents[BusCongestion])
	}
}

func TestBusCongestionExtraArea(t *testing.T) {
	e := newEngine(t, Config{
		ExtraAreas: []Area{{ID: "park", Pos: posPark}},
	})
	mustInput(t, e, Move(100, "b1", "r10", "o7", 0, nearPrk, 0, true))
	res := query(t, e, 3599)
	if !res.HoldsAt(BusCongestion, "park", 200) {
		t.Error("extra area must be monitored by busCongestion")
	}
}

func TestSourceDisagreement(t *testing.T) {
	e := newEngine(t, Config{})
	// Buses report congestion at i1 during [101, 1001); SCATS reports
	// congestion only during [201, 501).
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		Move(1000, "b1", "r10", "o7", 0, nearI1, 0, false),
		congestedReading(200, "s1", "i1"),
		congestedReading(200, "s2", "i1"),
		freeReading(500, "s1", "i1"),
		freeReading(500, "s2", "i1"),
	)
	res := query(t, e, 3599)
	got := res.Intervals(SourceDisagreement, "i1")
	want := rtec.List{{Start: 101, End: 201}, {Start: 501, End: 1001}}
	if !got.Equal(want) {
		t.Errorf("sourceDisagreement = %v, want %v", got, want)
	}
}

func TestDisagreeAgreeEvents(t *testing.T) {
	e := newEngine(t, Config{}, Agree)
	mustInput(t, e,
		// SCATS congestion at i1 throughout [201, ...).
		congestedReading(200, "s1", "i1"),
		congestedReading(200, "s2", "i1"),
		// b1 near i1 at 300 says NOT congested → disagree negative.
		Move(300, "b1", "r10", "o7", 0, nearI1, 0, false),
		// b2 near i1 at 400 says congested → agree.
		Move(400, "b2", "r11", "o7", 0, nearI1, 0, true),
		// b3 near i2 (no SCATS congestion) says congested → disagree positive.
		Move(500, "b3", "r12", "o7", 0, nearI2, 0, true),
	)
	res := query(t, e, 3599)

	dis := res.Derived[Disagree]
	if len(dis) != 2 {
		t.Fatalf("disagree events = %v, want 2", dis)
	}
	if dis[0].Key != "i1" || dis[0].Time != 300 {
		t.Errorf("first disagree = %v", dis[0])
	}
	if v, _ := dis[0].Str("value"); v != Negative {
		t.Errorf("first disagree value = %q, want negative", v)
	}
	if bus, _ := dis[0].Str("bus"); bus != "b1" {
		t.Errorf("first disagree bus = %q", bus)
	}
	if dis[1].Key != "i2" || dis[1].Time != 500 {
		t.Errorf("second disagree = %v", dis[1])
	}
	if v, _ := dis[1].Str("value"); v != Positive {
		t.Errorf("second disagree value = %q, want positive", v)
	}

	ag := res.Derived[Agree]
	if len(ag) != 1 || ag[0].Key != "b2" || ag[0].Time != 400 {
		t.Fatalf("agree events = %v, want one for b2@400", ag)
	}
}

func TestNoisyCrowdValidated(t *testing.T) {
	e := newEngine(t, Config{NoisyPolicy: CrowdValidated})
	mustInput(t, e,
		// b1 reports congestion near i1 with no SCATS congestion →
		// disagree(positive)@100.
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		// The crowd says there is NO congestion → contradicts the bus
		// → noisy(b1) initiated at 100.
		CrowdVerdict(200, "i1", Negative),
	)
	res := query(t, e, 3599)
	if !res.HoldsAt(Noisy, "b1", 150) {
		t.Error("noisy(b1) must hold after crowd contradicts the bus")
	}

	// Next window: b1 agrees with SCATS at i2 → rehabilitated.
	mustInput(t, e,
		congestedReading(3700, "s3", "i2"),
		Move(3800, "b1", "r10", "o7", 0, nearI2, 0, true), // agree
	)
	res = query(t, e, 7000)
	if res.HoldsAt(Noisy, "b1", 3900) {
		t.Error("agreement must terminate noisy(b1)")
	}
}

func TestNoisyCrowdValidatedNeedsCrowd(t *testing.T) {
	// Under rule-set (4), a disagreement alone does NOT make the bus
	// noisy.
	e := newEngine(t, Config{NoisyPolicy: CrowdValidated})
	mustInput(t, e, Move(100, "b1", "r10", "o7", 0, nearI1, 0, true))
	res := query(t, e, 3599)
	if res.HoldsAt(Noisy, "b1", 200) {
		t.Error("disagreement without crowd info must not initiate noisy under rule-set (4)")
	}
}

func TestNoisyCrowdValidatedConfirmationTerminates(t *testing.T) {
	e := newEngine(t, Config{NoisyPolicy: CrowdValidated})
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		CrowdVerdict(150, "i1", Negative), // contradicts → noisy from 101
		Move(400, "b1", "r10", "o7", 0, nearI1, 0, true),
		CrowdVerdict(450, "i1", Positive), // confirms the bus → terminate at 400
	)
	res := query(t, e, 3599)
	got := res.Intervals(Noisy, "b1")
	want := rtec.List{{Start: 101, End: 401}}
	if !got.Equal(want) {
		t.Errorf("noisy = %v, want %v", got, want)
	}
}

func TestNoisyCrowdWindow(t *testing.T) {
	// Crowd input arriving after CrowdWindow is ignored.
	e := newEngine(t, Config{NoisyPolicy: CrowdValidated, CrowdWindow: 100})
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		CrowdVerdict(300, "i1", Negative), // 200 s later > window
	)
	res := query(t, e, 3599)
	if res.HoldsAt(Noisy, "b1", 350) {
		t.Error("crowd verdict outside the window must be ignored")
	}
}

func TestNoisyPessimistic(t *testing.T) {
	e := newEngine(t, Config{NoisyPolicy: Pessimistic})
	mustInput(t, e,
		// Any disagreement initiates noisy immediately.
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
	)
	res := query(t, e, 3599)
	if !res.HoldsAt(Noisy, "b1", 200) {
		t.Error("rule-set (5): disagreement alone must initiate noisy")
	}
}

func TestNoisyPessimisticCrowdRehabilitates(t *testing.T) {
	e := newEngine(t, Config{NoisyPolicy: Pessimistic})
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		// The crowd proves the bus correct → terminated at T′ = 250.
		CrowdVerdict(250, "i1", Positive),
	)
	res := query(t, e, 3599)
	got := res.Intervals(Noisy, "b1")
	want := rtec.List{{Start: 101, End: 251}}
	if !got.Equal(want) {
		t.Errorf("noisy = %v, want %v", got, want)
	}
}

func TestAdaptiveBusCongestionRuleSet3Prime(t *testing.T) {
	run := func(adaptive bool) *rtec.Result {
		e := newEngine(t, Config{
			NoisyPolicy: Pessimistic,
			Adaptive:    adaptive,
			ExtraAreas:  []Area{{ID: "park", Pos: posPark}},
		})
		mustInput(t, e,
			// b1 disagrees at i1 → noisy from 101 under rule-set (5).
			Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
			// While noisy, b1 reports congestion at the park area.
			Move(300, "b1", "r10", "o7", 0, nearPrk, 0, true),
		)
		return query(t, e, 3599)
	}

	static := run(false)
	if !static.HoldsAt(BusCongestion, "park", 400) {
		t.Error("static recognition must accept the noisy bus's report")
	}

	adaptive := run(true)
	if adaptive.HoldsAt(BusCongestion, "park", 400) {
		t.Error("self-adaptive recognition must discard the noisy bus's report")
	}
	// The initial (pre-noisy) report at i1 is still accepted: noisy
	// holds only from T+1.
	if !adaptive.HoldsAt(BusCongestion, "i1", 150) {
		t.Error("report at the moment of first disagreement is still accepted")
	}
}

func TestDelayIncrease(t *testing.T) {
	e := newEngine(t, Config{}) // d = 60 s, t = 90 s
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 100, nearI1, 0, false),
		Move(130, "b1", "r10", "o7", 200, nearI1, 0, false), // +100 in 30 s → CE
		Move(160, "b1", "r10", "o7", 220, nearI1, 0, false), // +20 → below d
		Move(400, "b1", "r10", "o7", 500, nearI1, 0, false), // +280 but 240 s apart → outside t
	)
	res := query(t, e, 3599)
	evs := res.Derived[DelayIncrease]
	if len(evs) != 1 {
		t.Fatalf("delayIncrease events = %v, want 1", evs)
	}
	if evs[0].Time != 130 || evs[0].Key != "b1" {
		t.Errorf("delayIncrease = %v", evs[0])
	}
	if g, _ := evs[0].Int("delayGrowth"); g != 100 {
		t.Errorf("delayGrowth = %d, want 100", g)
	}
}

func TestDensityTrend(t *testing.T) {
	e := newEngine(t, Config{}, DensityTrend) // epsilon = 0.10
	mustInput(t, e,
		Traffic(100, "s1", "i1", "A1", 0.20, 1000),
		Traffic(460, "s1", "i1", "A1", 0.30, 1200), // density +50% → rising
		Traffic(820, "s1", "i1", "A1", 0.29, 700),  // density -3% → steady
		Traffic(1180, "s1", "i1", "A1", 0.20, 700), // density -31% → falling
	)
	res := query(t, e, 3599)
	dens := res.Fluents[DensityTrend]
	if !dens[rtec.KV{Key: "s1", Value: TrendRising}].Contains(500) {
		t.Error("density should be rising at 500")
	}
	if !dens[rtec.KV{Key: "s1", Value: TrendSteady}].Contains(900) {
		t.Error("density should be steady at 900")
	}
	if !dens[rtec.KV{Key: "s1", Value: TrendFalling}].Contains(1200) {
		t.Error("density should be falling at 1200")
	}
	// Values are mutually exclusive.
	if dens[rtec.KV{Key: "s1", Value: TrendRising}].Contains(900) {
		t.Error("rising must terminate when steady is initiated")
	}
}

func TestBuildStrataShape(t *testing.T) {
	defs, err := Build(Config{Registry: testRegistry(t), Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	// With Adaptive on, busCongestion must evaluate after noisy, which
	// evaluates after disagree/agree, which evaluate after
	// scatsIntCongestion, which evaluates after scatsCongestion. Describe
	// lists every rule as "stratum N  name ...".
	level := make(map[string]int)
	for _, line := range strings.Split(defs.Describe(), "\n") {
		var stratum int
		var name string
		if n, _ := fmt.Sscanf(line, "stratum %d %s", &stratum, &name); n == 2 {
			level[name] = stratum
		}
	}
	order := [][2]string{
		{ScatsCongestion, ScatsIntCongestion},
		{ScatsIntCongestion, Disagree},
		{Disagree, Noisy},
		{Noisy, BusCongestion},
		{BusCongestion, SourceDisagreement},
	}
	for _, pair := range order {
		if level[pair[0]] >= level[pair[1]] {
			t.Errorf("%s (stratum %d) must evaluate before %s (stratum %d)",
				pair[0], level[pair[0]], pair[1], level[pair[1]])
		}
	}
}
