package dublin

import (
	"bytes"
	"math"
	"sort"
	"testing"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// smallConfig keeps the test city fast while preserving structure.
func smallConfig() Config {
	return Config{
		Seed:       11,
		NumBuses:   30,
		NumSensors: 40,
		Hotspots:   10,
	}
}

func mustCity(t *testing.T, cfg Config) *City {
	t.Helper()
	c, err := NewCity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCityValidation(t *testing.T) {
	if _, err := NewCity(Config{NumBuses: -1}); err == nil {
		t.Error("negative bus count must error")
	}
	if _, err := NewCity(Config{BusPeriodMin: 30, BusPeriodMax: 20}); err == nil {
		t.Error("inverted period bounds must error")
	}
}

func TestCityDeterminism(t *testing.T) {
	c1 := mustCity(t, smallConfig())
	c2 := mustCity(t, smallConfig())
	if len(c1.Sensors()) != len(c2.Sensors()) || len(c1.buses) != len(c2.buses) {
		t.Fatal("same seed must build identical cities")
	}
	for i := range c1.Sensors() {
		if c1.Sensors()[i] != c2.Sensors()[i] {
			t.Fatal("sensor placement must be deterministic")
		}
	}
	s1 := c1.Collect(0, 600)
	s2 := c2.Collect(0, 600)
	if len(s1) != len(s2) {
		t.Fatalf("stream lengths differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i].Event.Time != s2[i].Event.Time || s1[i].Event.Key != s2[i].Event.Key ||
			s1[i].Arrival != s2[i].Arrival {
			t.Fatal("streams must be identical for the same seed")
		}
	}
}

func TestCityEntityCounts(t *testing.T) {
	c := mustCity(t, smallConfig())
	if len(c.buses) != 30 {
		t.Errorf("buses = %d", len(c.buses))
	}
	if len(c.Sensors()) != 40 {
		t.Errorf("sensors = %d", len(c.Sensors()))
	}
	// Every sensor belongs to exactly one intersection and the
	// intersection's sensor list is consistent.
	byInter := make(map[string]int)
	for _, s := range c.Sensors() {
		byInter[s.Intersection]++
	}
	total := 0
	for _, in := range c.Intersections() {
		if len(in.Sensors) == 0 || len(in.Sensors) > 4 {
			t.Errorf("intersection %s has %d sensors", in.ID, len(in.Sensors))
		}
		if byInter[in.ID] != len(in.Sensors) {
			t.Errorf("intersection %s sensor list inconsistent", in.ID)
		}
		total += len(in.Sensors)
	}
	if total != 40 {
		t.Errorf("intersection sensor lists cover %d sensors, want 40", total)
	}
}

func TestDefaultEntityCountsMatchPaper(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.NumBuses != 942 || cfg.NumSensors != 966 {
		t.Errorf("defaults = %d buses, %d sensors; paper says 942 and 966",
			cfg.NumBuses, cfg.NumSensors)
	}
	if cfg.BusPeriodMin != 20 || cfg.BusPeriodMax != 30 || cfg.ScatsPeriod != 360 {
		t.Error("default emission periods must match the paper")
	}
}

func TestStreamRatesMatchPaper(t *testing.T) {
	// With the full fleet, the bus stream must average roughly one
	// SDE every 2 seconds and sensors every 6 minutes (Section 7).
	c := mustCity(t, Config{Seed: 3}) // full 942/966 city
	sdes := c.Collect(0, 30*60)       // half an hour
	st := ComputeStats(sdes)

	if st.DistinctBuses < 900 {
		t.Errorf("only %d distinct buses emitted", st.DistinctBuses)
	}
	if st.DistinctSensors < 930 {
		t.Errorf("only %d distinct sensors emitted", st.DistinctSensors)
	}
	if st.MeanBusPeriod < 20 || st.MeanBusPeriod > 31 {
		t.Errorf("mean bus period = %.1f s, want 20-30", st.MeanBusPeriod)
	}
	if math.Abs(st.MeanScatsPeriod-360) > 5 {
		t.Errorf("mean SCATS period = %.1f s, want ≈ 360", st.MeanScatsPeriod)
	}
	if st.MeanBusInterarrival > 2.5 {
		t.Errorf("fleet inter-arrival = %.2f s, paper reports ≈ 2 s", st.MeanBusInterarrival)
	}
	// ~1% drop rate: events ≈ duration/period * fleet * 0.99.
	if st.BusEvents < 60000 {
		t.Errorf("bus events = %d, want > 60000 in 30 min", st.BusEvents)
	}
	if st.MaxDelay <= 0 || st.MaxDelay > 45 {
		t.Errorf("max mediator delay = %d, want within (0, 45]", int64(st.MaxDelay))
	}
	if s := st.String(); len(s) == 0 {
		t.Error("Stats.String empty")
	}
}

func TestEventsWellFormed(t *testing.T) {
	c := mustCity(t, smallConfig())
	sdes := c.Collect(0, 900)
	if len(sdes) == 0 {
		t.Fatal("no events generated")
	}
	box := geo.Dublin.Expand(0.01, 0.01)
	prevArrival := rtec.Time(0)
	for _, sde := range sdes {
		e := sde.Event
		if sde.Arrival < e.Time {
			t.Fatalf("arrival before occurrence: %v", sde)
		}
		if sde.Arrival < prevArrival {
			t.Fatal("Collect must sort by arrival")
		}
		prevArrival = sde.Arrival
		lon, _ := e.Float("lon")
		lat, _ := e.Float("lat")
		if !box.Contains(geo.LonLat(lon, lat)) {
			t.Fatalf("event outside Dublin: %v (%f, %f)", e, lat, lon)
		}
		switch e.Type {
		case traffic.MoveType:
			if d, ok := e.Int("delay"); !ok || d < 0 {
				t.Fatalf("bad delay on %v", e)
			}
			if _, ok := e.Bool("congested"); !ok {
				t.Fatalf("missing congested flag on %v", e)
			}
		case traffic.TrafficType:
			d, _ := e.Float("density")
			f, _ := e.Float("flow")
			if d < 0 || d > 1 || f < 0 || f > 2000 {
				t.Fatalf("implausible reading: density=%f flow=%f", d, f)
			}
		default:
			t.Fatalf("unexpected event type %q", e.Type)
		}
	}
}

func TestGroundTruthRushHour(t *testing.T) {
	c := mustCity(t, Config{Seed: 5, NumBuses: 5, NumSensors: 5, Hotspots: 25})
	// Congestion at hotspot centers must be higher at 8am than 3am.
	morning := rtec.Time(8 * 3600)
	night := rtec.Time(3 * 3600)
	higher, total := 0, 0
	for _, h := range c.hotspots {
		am := c.CongestionAt(h.center, morning)
		nt := c.CongestionAt(h.center, night)
		total++
		if am > nt {
			higher++
		}
	}
	if higher*3 < total*2 {
		t.Errorf("only %d/%d hotspots busier at rush hour", higher, total)
	}
	// Far from any hotspot the field is ~0.
	if v := c.CongestionAt(geo.At(52.0, -8.0), morning); v != 0 {
		t.Errorf("remote congestion = %v, want 0", v)
	}
}

func TestSensorReadingCalibration(t *testing.T) {
	c := mustCity(t, smallConfig())
	s := &c.Sensors()[0]
	// Force intensities by probing the formula directly.
	for _, intensity := range []float64{0, 0.3, 0.7, 1.0} {
		density := 0.05 + 0.9*intensity
		flow := 1500 - 1300*intensity
		congestedPerCE := density >= 0.35 && flow <= 600
		if want := intensity >= CongestionTruthThreshold; congestedPerCE != want {
			t.Errorf("intensity %.2f: CE detection %v, truth %v — calibration broken",
				intensity, congestedPerCE, want)
		}
	}
	// And the reading function itself is consistent with the formula.
	d, f := c.SensorReading(s, 0)
	i := c.CongestionAt(s.Pos, 0)
	if math.Abs(d-(0.05+0.9*i)) > 1e-9 || math.Abs(f-(1500-1300*i)) > 1e-9 {
		t.Error("SensorReading disagrees with the documented formula")
	}
}

func TestBusMovement(t *testing.T) {
	c := mustCity(t, smallConfig())
	b := &c.buses[0]
	p0 := c.BusPosition(b, 0)
	p1 := c.BusPosition(b, 40)
	p2 := c.BusPosition(b, 80)
	if p0 == p1 && p1 == p2 {
		t.Error("bus never moves")
	}
	// Loop closure: position repeats after a full loop.
	loop := rtec.Time(len(b.route)) * c.cfg.EdgeSeconds
	pLoop := c.BusPosition(b, loop)
	if geo.Distance(p0, pLoop) > 1 {
		t.Errorf("loop does not close: %v vs %v", p0, pLoop)
	}
	// Consecutive positions are street-scale apart (no teleporting).
	for tm := rtec.Time(0); tm < 600; tm += 25 {
		a := c.BusPosition(b, tm)
		bb := c.BusPosition(b, tm+25)
		if geo.Distance(a, bb) > 2000 {
			t.Fatalf("bus teleported %f m in 25 s", geo.Distance(a, bb))
		}
	}
}

func TestNoisyBusesExist(t *testing.T) {
	c := mustCity(t, Config{Seed: 9, NumBuses: 200, NumSensors: 10, NoisyBusFraction: 0.10})
	noisy := 0
	for _, b := range c.buses {
		if b.Noisy {
			noisy++
		}
	}
	if noisy < 5 || noisy > 40 {
		t.Errorf("noisy buses = %d of 200 at 10%%", noisy)
	}
}

func TestRegistryFromCity(t *testing.T) {
	c := mustCity(t, smallConfig())
	reg, err := c.Registry(100)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.Intersections()) != len(c.Intersections()) {
		t.Error("registry must contain every intersection")
	}
	// The definitions compile against the generated registry.
	if _, err := traffic.Build(traffic.Config{Registry: reg, Adaptive: true}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionOf(t *testing.T) {
	c := mustCity(t, smallConfig())
	counts := make(map[int]int)
	for _, sde := range c.Collect(0, 1200) {
		p := PartitionOf(sde.Event)
		if p < 0 || p >= int(geo.NumRegions) {
			t.Fatalf("partition %d out of range", p)
		}
		counts[p]++
	}
	if len(counts) < 2 {
		t.Errorf("all events in one partition: %v", counts)
	}
	// Events without coordinates default to Central.
	if p := PartitionOf(rtec.NewEvent("crowd", 0, "x", nil)); p != int(geo.Central) {
		t.Errorf("coordinate-less event partition = %d", p)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	c := mustCity(t, smallConfig())
	sdes := c.Collect(0, 300)

	var busBuf, scatsBuf bytes.Buffer
	if err := WriteBusCSV(&busBuf, sdes); err != nil {
		t.Fatal(err)
	}
	if err := WriteScatsCSV(&scatsBuf, sdes); err != nil {
		t.Fatal(err)
	}
	bus, err := ReadBusCSV(bytes.NewReader(busBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	scats, err := ReadScatsCSV(bytes.NewReader(scatsBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var wantBus, wantScats []SDE
	for _, s := range sdes {
		switch s.Event.Type {
		case traffic.MoveType:
			wantBus = append(wantBus, s)
		case traffic.TrafficType:
			wantScats = append(wantScats, s)
		}
	}
	if len(bus) != len(wantBus) || len(scats) != len(wantScats) {
		t.Fatalf("round trip counts: %d/%d bus, %d/%d scats",
			len(bus), len(wantBus), len(scats), len(wantScats))
	}
	for i := range bus {
		a, b := bus[i], wantBus[i]
		if a.Event.Time != b.Event.Time || a.Event.Key != b.Event.Key || a.Arrival != b.Arrival {
			t.Fatalf("bus row %d differs: %v vs %v", i, a, b)
		}
		ac, _ := a.Event.Bool("congested")
		bc, _ := b.Event.Bool("congested")
		if ac != bc {
			t.Fatalf("bus row %d congested flag differs", i)
		}
		ad, _ := a.Event.Int("delay")
		bd, _ := b.Event.Int("delay")
		if ad != bd {
			t.Fatalf("bus row %d delay differs", i)
		}
	}
	for i := range scats {
		a, b := scats[i], wantScats[i]
		if a.Event.Time != b.Event.Time || a.Event.Key != b.Event.Key || a.Arrival != b.Arrival {
			t.Fatalf("scats row %d differs", i)
		}
		af, _ := a.Event.Float("flow")
		bf, _ := b.Event.Float("flow")
		if math.Abs(af-bf) > 0.01 {
			t.Fatalf("scats row %d flow differs: %f vs %f", i, af, bf)
		}
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadBusCSV(bytes.NewReader(nil)); err == nil {
		t.Error("empty bus CSV must error")
	}
	if _, err := ReadScatsCSV(bytes.NewReader([]byte("bogus,header\n"))); err == nil {
		t.Error("wrong header must error")
	}
	bad := "timestamp,bus,line,operator,delay,lon,lat,direction,congestion,arrival\nx,a,b,c,1,2,3,0,1,5\n"
	if _, err := ReadBusCSV(bytes.NewReader([]byte(bad))); err == nil {
		t.Error("non-numeric timestamp must error")
	}
}

func TestComputeStatsEmpty(t *testing.T) {
	st := ComputeStats(nil)
	if st.BusEvents != 0 || st.ScatsEvents != 0 {
		t.Error("empty stats must be zero")
	}
}

func TestNoisyScatsSensors(t *testing.T) {
	c := mustCity(t, Config{Seed: 4, NumBuses: 2, NumSensors: 100, NoisyScatsFraction: 0.2})
	noisy := 0
	for i := range c.Sensors() {
		if c.Sensors()[i].Noisy {
			noisy++
		}
	}
	if noisy < 8 || noisy > 40 {
		t.Errorf("noisy sensors = %d of 100 at 20%%", noisy)
	}
	// A miscalibrated sensor reports the inverse state: at a moment
	// and place of real congestion it must report free flow.
	var healthy, faulty *Sensor
	for i := range c.Sensors() {
		s := &c.Sensors()[i]
		if s.Noisy && faulty == nil {
			faulty = s
		}
		if !s.Noisy && healthy == nil {
			healthy = s
		}
	}
	if faulty == nil || healthy == nil {
		t.Fatal("need both kinds of sensor")
	}
	// Compare the faulty sensor against what a healthy sensor at the
	// same spot would report.
	ghost := *faulty
	ghost.Noisy = false
	dFaulty, fFaulty := c.SensorReading(faulty, 8*3600)
	dTrue, fTrue := c.SensorReading(&ghost, 8*3600)
	if dFaulty == dTrue && fFaulty == fTrue {
		t.Error("faulty sensor reads identically to a healthy one")
	}
	// The inversion is symmetric around intensity 0.5.
	wantD := 0.05 + 0.9*(1-(dTrue-0.05)/0.9)
	if math.Abs(dFaulty-wantD) > 1e-9 {
		t.Errorf("faulty density = %v, want %v", dFaulty, wantD)
	}
	// Default configuration has no faulty sensors.
	clean := mustCity(t, smallConfig())
	for i := range clean.Sensors() {
		if clean.Sensors()[i].Noisy {
			t.Fatal("default config must have no miscalibrated sensors")
		}
	}
}

func TestIncidents(t *testing.T) {
	c := mustCity(t, Config{Seed: 8, NumBuses: 2, NumSensors: 10, Incidents: 5})
	if len(c.Incidents()) != 5 {
		t.Fatalf("incidents = %d", len(c.Incidents()))
	}
	in := c.Incidents()[0]
	if in.Duration < 1800 || in.Duration > 5400 {
		t.Errorf("duration = %d, want 30-90 min", int64(in.Duration))
	}
	if in.Severity < 0.8 || in.Severity > 1.0 {
		t.Errorf("severity = %v", in.Severity)
	}
	// At the incident peak, its center is congested; well before the
	// start it contributes nothing.
	mid := in.Start + in.Duration/2
	if got := c.CongestionAt(in.Center, mid); got < 0.7 {
		t.Errorf("congestion at incident peak = %v, want >= 0.7", got)
	}
	// Compare with an identical city WITHOUT incidents at the same
	// time and place: the incident must be the cause.
	clean := mustCity(t, Config{Seed: 8, NumBuses: 2, NumSensors: 10})
	if base := clean.CongestionAt(in.Center, mid); base >= 0.7 {
		t.Skip("hotspot congestion masks the incident at this seed/time")
	}
	// Temporal envelope: zero before start.
	if got := in.intensityAt(in.Start - 100); got != 0 {
		t.Errorf("intensity before start = %v", got)
	}
	if got := in.intensityAt(in.Start + in.Duration/2); got < in.Severity*0.99 {
		t.Errorf("peak intensity = %v, want ~%v", got, in.Severity)
	}
	if got := in.intensityAt(in.Start + in.Duration + 1); got != 0 {
		t.Errorf("intensity after end = %v", got)
	}
	// Default config has none.
	if len(mustCity(t, smallConfig()).Incidents()) != 0 {
		t.Error("default config must schedule no incidents")
	}
}

// Stream and Collect must expose the same events; Collect only adds
// the arrival ordering.
func TestStreamCollectEquivalence(t *testing.T) {
	c := mustCity(t, smallConfig())
	var streamed []SDE
	gen := c.Stream(0, 600)
	for {
		raw, ok := gen.nextRaw()
		if !ok {
			break
		}
		streamed = append(streamed, SDE{Event: gen.materialize(raw), Arrival: raw.arrival})
	}
	collected := c.Collect(0, 600)
	if len(streamed) != len(collected) {
		t.Fatalf("stream %d events, collect %d", len(streamed), len(collected))
	}
	// Same multiset: compare per-entity occurrence sequences.
	key := func(s SDE) string { return s.Event.Key }
	seq := func(sdes []SDE) map[string][]rtec.Time {
		out := map[string][]rtec.Time{}
		for _, s := range sdes {
			out[key(s)] = append(out[key(s)], s.Event.Time)
		}
		for _, ts := range out {
			sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
		}
		return out
	}
	a, b := seq(streamed), seq(collected)
	if len(a) != len(b) {
		t.Fatal("entity sets differ")
	}
	for k, ts := range a {
		if len(ts) != len(b[k]) {
			t.Fatalf("entity %s event counts differ", k)
		}
		for i := range ts {
			if ts[i] != b[k][i] {
				t.Fatalf("entity %s occurrence %d differs", k, i)
			}
		}
	}
}
