package traffic

import (
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
)

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.DensityThreshold != 0.35 || cfg.FlowThreshold != 600 {
		t.Errorf("threshold defaults: %+v", cfg)
	}
	if cfg.MinCongestedSensors != 2 {
		t.Errorf("MinCongestedSensors default = %d", cfg.MinCongestedSensors)
	}
	if cfg.DelayIncreaseSeconds != 60 || cfg.DelayIncreaseWindow != 90 {
		t.Errorf("delayIncrease defaults: %+v", cfg)
	}
	if cfg.CrowdWindow != 600 {
		t.Errorf("CrowdWindow default = %d", cfg.CrowdWindow)
	}
	if cfg.TrendEpsilon != 0.10 {
		t.Errorf("TrendEpsilon default = %v", cfg.TrendEpsilon)
	}
}

func TestBuildWithExtension(t *testing.T) {
	defs, err := BuildWith(Config{Registry: testRegistry(t)}, func(b *rtec.Builder) {
		b.Event(rtec.EventRule{
			Name:   "customAlert",
			Inputs: []string{ScatsIntCongestion},
			Derive: func(ctx *rtec.Context) []rtec.Event {
				var out []rtec.Event
				for kv, l := range ctx.FluentInstances(ScatsIntCongestion) {
					for _, span := range l {
						out = append(out, rtec.NewEvent("customAlert", span.Start, kv.Key, nil))
					}
				}
				return out
			},
		})
		b.Output("customAlert")
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 3600})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, e,
		congestedReading(100, "s1", "i1"),
		congestedReading(100, "s2", "i1"),
	)
	res := query(t, e, 3599)
	if len(res.Derived["customAlert"]) != 1 {
		t.Errorf("custom CE not recognised: %v", res.Derived["customAlert"])
	}
}

func TestBuildWithExtensionNameClash(t *testing.T) {
	_, err := BuildWith(Config{Registry: testRegistry(t)}, func(b *rtec.Builder) {
		b.Event(rtec.EventRule{
			Name:   Disagree, // clashes with the library definition
			Inputs: []string{MoveType},
			Derive: func(*rtec.Context) []rtec.Event { return nil },
		})
	})
	if err == nil {
		t.Error("extension clashing with a library name must fail to compile")
	}
}

func TestTrendFromZeroBaseline(t *testing.T) {
	e := newEngine(t, Config{}, DensityTrend)
	mustInput(t, e,
		Traffic(100, "s1", "i1", "A1", 0.0, 0),   // zero flow and density
		Traffic(460, "s1", "i1", "A1", 0.2, 500), // both now positive
		Traffic(820, "s1", "i1", "A1", 0.2, 500), // unchanged
	)
	res := query(t, e, 3599)
	dens := res.Fluents[DensityTrend]
	if !dens[rtec.KV{Key: "s1", Value: TrendRising}].Contains(500) {
		t.Error("0 -> positive must count as rising")
	}
	if !dens[rtec.KV{Key: "s1", Value: TrendSteady}].Contains(900) {
		t.Error("unchanged reading must be steady")
	}
	// Zero to zero is steady, not rising.
	e2 := newEngine(t, Config{}, DensityTrend)
	mustInput(t, e2,
		Traffic(100, "s1", "i1", "A1", 0.0, 0),
		Traffic(460, "s1", "i1", "A1", 0.0, 0),
	)
	res2 := query(t, e2, 3599)
	if !res2.Fluents[DensityTrend][rtec.KV{Key: "s1", Value: TrendSteady}].Contains(500) {
		t.Error("0 -> 0 must be steady")
	}
}

func TestDelayIncreaseExactThresholds(t *testing.T) {
	e := newEngine(t, Config{}) // d = 60, t = 90
	mustInput(t, e,
		Move(100, "b1", "r", "o", 0, nearI1, 0, false),
		Move(190, "b1", "r", "o", 100, nearI1, 0, false), // dt = 90: NOT < t
		Move(200, "b1", "r", "o", 160, nearI1, 0, false), // growth = 60: NOT > d
		Move(210, "b1", "r", "o", 221, nearI1, 0, false), // growth 61 in 10 s: fires
	)
	res := query(t, e, 3599)
	evs := res.Derived[DelayIncrease]
	if len(evs) != 1 || evs[0].Time != 210 {
		t.Errorf("delayIncrease = %v, want exactly the third pair", evs)
	}
}

func TestMoveEventMissingCoordinates(t *testing.T) {
	// A malformed move SDE without coordinates must be skipped, not
	// crash the rules.
	e := newEngine(t, Config{Adaptive: true, NoisyPolicy: Pessimistic})
	bad := rtec.NewEvent(MoveType, 100, "b1", map[string]any{"congested": true})
	if err := e.Input(bad); err != nil {
		t.Fatal(err)
	}
	res := query(t, e, 3599)
	if len(res.Fluents[BusCongestion]) != 0 {
		t.Error("coordinate-less move must not create congestion")
	}
	if len(res.Derived[Disagree]) != 0 {
		t.Error("coordinate-less move must not disagree")
	}
}

func TestBusOnIntersectionBoundaryBothSides(t *testing.T) {
	// A bus exactly at the close-threshold distance is still "close"
	// (the predicate is <=).
	reg, err := NewRegistry([]Intersection{{ID: "i", Pos: posI1, Sensors: []string{"s"}}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Find a point very near 100 m north of posI1.
	at := geo.At(posI1.Lat+100/111195.0, posI1.Lon)
	d := geo.Distance(posI1, at)
	if d > 100 {
		// Nudge inside the threshold.
		at = geo.At(posI1.Lat+99/111195.0, posI1.Lon)
	}
	defs, err := Build(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, e, Move(100, "b", "r", "o", 0, at, 0, true))
	res := query(t, e, 999)
	if !res.HoldsAt(BusCongestion, "i", 200) {
		t.Error("bus just inside the close threshold must report congestion")
	}
}

func TestNoisyCrowdAtWindowEdgeExcluded(t *testing.T) {
	// dt == CrowdWindow exactly: the condition is 0 < T'-T < threshold,
	// strictly, so the verdict is ignored.
	e := newEngine(t, Config{NoisyPolicy: CrowdValidated, CrowdWindow: 100})
	mustInput(t, e,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		CrowdVerdict(200, "i1", Negative), // dt = 100 == window
	)
	res := query(t, e, 3599)
	if res.HoldsAt(Noisy, "b1", 300) {
		t.Error("crowd verdict exactly at the window edge must be excluded")
	}

	// dt == 0: also excluded (0 < T'-T).
	e2 := newEngine(t, Config{NoisyPolicy: CrowdValidated, CrowdWindow: 100})
	mustInput(t, e2,
		Move(100, "b1", "r10", "o7", 0, nearI1, 0, true),
		CrowdVerdict(100, "i1", Negative),
	)
	res2 := query(t, e2, 3599)
	if res2.HoldsAt(Noisy, "b1", 300) {
		t.Error("crowd verdict simultaneous with the disagreement must be excluded")
	}
}

func TestMultipleIntersectionsWithinCloseRange(t *testing.T) {
	// Two intersections within the close radius of the same bus
	// position: both receive busCongestion and both can disagree.
	posNear := geo.At(53.3500, -6.2600)
	posNear2 := geo.At(53.3504, -6.2600) // ~45 m away
	reg, err := NewRegistry([]Intersection{
		{ID: "a", Pos: posNear, Sensors: []string{"sa"}},
		{ID: "b", Pos: posNear2, Sensors: []string{"sb"}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := Build(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 1000})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, e, Move(100, "bus", "r", "o", 0, posNear, 0, true))
	res := query(t, e, 999)
	if !res.HoldsAt(BusCongestion, "a", 200) || !res.HoldsAt(BusCongestion, "b", 200) {
		t.Error("both nearby intersections must be marked")
	}
	if len(res.Derived[Disagree]) != 2 {
		t.Errorf("expected two disagree events, got %v", res.Derived[Disagree])
	}
}

func TestStructuredIntersectionCongestion(t *testing.T) {
	// An intersection with two approaches: north (sensors sN1, sN2)
	// and south (sensor sS1). Structured definition with
	// MinCongestedApproaches = 2: congestion requires BOTH approaches,
	// but any one sensor congests its approach.
	reg, err := NewRegistry([]Intersection{{
		ID:      "x",
		Pos:     posI1,
		Sensors: []string{"sN1", "sN2", "sS1"},
		SensorApproach: map[string]string{
			"sN1": "north", "sN2": "north", "sS1": "south",
		},
	}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := BuildWith(Config{Registry: reg, StructuredIntersections: true}, func(b *rtec.Builder) {
		b.Output(ScatsApproachCongestion)
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 3600})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, e,
		// Both north sensors congested: only ONE approach.
		congestedReading(100, "sN1", "x"),
		congestedReading(100, "sN2", "x"),
		// South joins later.
		congestedReading(500, "sS1", "x"),
	)
	res := query(t, e, 3599)

	if !res.HoldsAt(ScatsApproachCongestion, ApproachKey("x", "north"), 200) {
		t.Error("north approach must be congested from its sensors")
	}
	if res.HoldsAt(ScatsApproachCongestion, ApproachKey("x", "south"), 200) {
		t.Error("south approach must not be congested yet")
	}
	if res.HoldsAt(ScatsIntCongestion, "x", 200) {
		t.Error("one congested approach of two must not congest the intersection")
	}
	if !res.HoldsAt(ScatsIntCongestion, "x", 600) {
		t.Error("both approaches congested must congest the intersection")
	}

	// Compare with the FLAT definition: n=2 sensors is already met at
	// t=200 (both north sensors) even though only one approach is
	// affected — the structured definition is strictly more demanding
	// here.
	flatDefs, err := Build(Config{Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fe, err := rtec.NewEngine(flatDefs, rtec.Options{WorkingMemory: 3600})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, fe,
		congestedReading(100, "sN1", "x"),
		congestedReading(100, "sN2", "x"),
		congestedReading(500, "sS1", "x"),
	)
	fres := query(t, fe, 3599)
	if !fres.HoldsAt(ScatsIntCongestion, "x", 200) {
		t.Error("flat definition should already fire on two sensors of one approach")
	}
}

func TestStructuredWithoutApproachMap(t *testing.T) {
	// Sensors without approach labels each form their own approach:
	// the structured definition then degrades to per-sensor counting.
	reg, err := NewRegistry([]Intersection{{
		ID: "y", Pos: posI2, Sensors: []string{"a", "b"},
	}}, 100)
	if err != nil {
		t.Fatal(err)
	}
	defs, err := BuildWith(Config{Registry: reg, StructuredIntersections: true}, func(b *rtec.Builder) {
		b.Output(ScatsApproachCongestion)
	})
	if err != nil {
		t.Fatal(err)
	}
	e, err := rtec.NewEngine(defs, rtec.Options{WorkingMemory: 3600})
	if err != nil {
		t.Fatal(err)
	}
	mustInput(t, e,
		congestedReading(100, "a", "y"),
		congestedReading(400, "b", "y"),
	)
	res := query(t, e, 3599)
	if res.HoldsAt(ScatsIntCongestion, "y", 200) {
		t.Error("one of two implicit approaches must not suffice")
	}
	if !res.HoldsAt(ScatsIntCongestion, "y", 500) {
		t.Error("both implicit approaches congested must congest the intersection")
	}
}

func TestCongestionInTheMake(t *testing.T) {
	e := newEngine(t, Config{}) // pre-threshold 0.20, congested at 0.35/600
	mustInput(t, e,
		Traffic(100, "s1", "i1", "A1", 0.10, 1300), // calm
		Traffic(460, "s1", "i1", "A1", 0.16, 1200), // rising but below pre-threshold
		Traffic(820, "s1", "i1", "A1", 0.25, 1000), // rising AND elevated → in-the-make
		Traffic(1180, "s1", "i1", "A1", 0.60, 300), // fully congested → no longer "in the make"
	)
	res := query(t, e, 3599)
	got := res.Intervals(CongestionInMake, "s1")
	want := rtec.List{{Start: 821, End: 1181}}
	if !got.Equal(want) {
		t.Errorf("congestionInTheMake = %v, want %v", got, want)
	}
	// And the full congestion takes over afterwards.
	if !res.HoldsAt(ScatsCongestion, "s1", 1300) {
		t.Error("scatsCongestion must hold once thresholds are crossed")
	}
}

func TestCongestionInTheMakeRequiresRisingTrend(t *testing.T) {
	e := newEngine(t, Config{})
	mustInput(t, e,
		Traffic(100, "s1", "i1", "A1", 0.30, 1000), // elevated from the start
		Traffic(460, "s1", "i1", "A1", 0.30, 1000), // steady, not rising
	)
	res := query(t, e, 3599)
	if len(res.Intervals(CongestionInMake, "s1")) != 0 {
		t.Errorf("steady density must not count as in-the-make: %v",
			res.Intervals(CongestionInMake, "s1"))
	}
}

func TestRushIntervals(t *testing.T) {
	rush := [][2]float64{{7, 10}, {16, 19}}
	day := rtec.Time(24 * 3600)
	// A span covering a day and a half starting at midnight.
	got := rushIntervals(rush, rtec.Span{Start: 0, End: day + day/2})
	want := rtec.List{
		{Start: 7 * 3600, End: 10 * 3600},
		{Start: 16 * 3600, End: 19 * 3600},
		{Start: day + 7*3600, End: day + 10*3600},
	}
	// The second day's evening window is beyond the span but included
	// by day granularity; normalize both and compare coverage at
	// sample points instead of exact lists.
	for _, probe := range []struct {
		t    rtec.Time
		want bool
	}{
		{8 * 3600, true}, {12 * 3600, false}, {17 * 3600, true},
		{23 * 3600, false}, {day + 8*3600, true}, {day + 11*3600, false},
	} {
		if got.Contains(probe.t) != probe.want {
			t.Errorf("rush at %d = %v, want %v", probe.t, got.Contains(probe.t), probe.want)
		}
	}
	_ = want
}

func TestUnusualCongestion(t *testing.T) {
	e := newEngine(t, Config{}) // rush: 7-10 and 16-19
	// Congestion at 03:00 (unusual) and at 08:00 (expected), same
	// intersection on different days? Use the same window: WM is 3600
	// in newEngine; use two separate engines instead.
	mustInput(t, e,
		congestedReading(3*3600, "s1", "i1"),
		congestedReading(3*3600, "s2", "i1"),
		freeReading(3*3600+900, "s1", "i1"),
		freeReading(3*3600+900, "s2", "i1"),
	)
	res := query(t, e, 3*3600+1800)
	if !res.HoldsAt(UnusualCongestion, "i1", 3*3600+600) {
		t.Error("night congestion must be unusual")
	}

	e2 := newEngine(t, Config{})
	mustInput(t, e2,
		congestedReading(8*3600, "s1", "i1"),
		congestedReading(8*3600, "s2", "i1"),
	)
	res2 := query(t, e2, 8*3600+1800)
	if !res2.HoldsAt(ScatsIntCongestion, "i1", 8*3600+600) {
		t.Fatal("rush congestion must be recognised")
	}
	if res2.HoldsAt(UnusualCongestion, "i1", 8*3600+600) {
		t.Error("rush-hour congestion must NOT be unusual")
	}
}

func TestUnusualCongestionCrossesRushBoundary(t *testing.T) {
	// Congestion starting inside the morning rush and persisting past
	// its end becomes unusual exactly at 10:00.
	e := newEngine(t, Config{})
	mustInput(t, e,
		congestedReading(9*3600+2700, "s1", "i1"), // 09:45
		congestedReading(9*3600+2700, "s2", "i1"),
	)
	res := query(t, e, 10*3600+1200) // 10:20
	if res.HoldsAt(UnusualCongestion, "i1", 9*3600+3000) {
		t.Error("09:50 congestion is still within rush")
	}
	if !res.HoldsAt(UnusualCongestion, "i1", 10*3600+600) {
		t.Error("10:10 congestion must be unusual")
	}
}
