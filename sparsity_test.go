package insight

import (
	"context"
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams/wal"
	"github.com/insight-dublin/insight/traffic"
)

// TestFlowMapMatchesPredictReference: on the benchmark's miniature (24
// buses, 24 sensors, one hour, crowd on) FlowMap equals the dense
// kernel's Fit + Predict over the same observations vertex for vertex,
// with and without the crowd pseudo-readings, within gp's stated
// tolerance for its sparse solve (1e-9 of the map's largest value;
// measured ~1e-14) — the solver changed what FlowMap costs, not what it
// returns.
func TestFlowMapMatchesPredictReference(t *testing.T) {
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 24, NumSensors: 24, NoisyBusFraction: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	sys, err := New(Config{City: city, Seed: 7, Participants: testParticipants(city, 8)})
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	if err := runToEnd(context.Background())(sys.Pipeline(7*3600, 8*3600, PipelineOptions{OnReport: func(r *Report) error {
		rounds += len(r.CrowdRounds)
		return nil
	}})); err != nil {
		t.Fatal(err)
	}
	if rounds == 0 || len(sys.lastCrowd) == 0 {
		t.Fatal("no crowd verdicts recorded: the crowd-augmented case is vacuous")
	}
	all := make([]int, city.Graph().NumVertices())
	for i := range all {
		all[i] = i
	}
	for _, cfg := range []MapConfig{
		{Alpha: 2, Beta: 1, SensorNoise: 2500},
		{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4},
	} {
		got, err := sys.FlowMap(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var obs []gp.Observation
		for _, sensor := range sortedKeys(sys.lastTraffic) {
			r := sys.lastTraffic[sensor]
			obs = append(obs, gp.Observation{Vertex: r.vertex, Value: r.flow})
		}
		if cfg.CrowdNoise > 0 {
			for _, inter := range sortedKeys(sys.lastCrowd) {
				c := sys.lastCrowd[inter]
				value := float64(crowdFreeFlow)
				if c.congested {
					value = crowdCongestedFlow
				}
				obs = append(obs, gp.Observation{Vertex: c.vertex, Value: value, Noise: cfg.CrowdNoise})
			}
		}
		kernel, err := gp.RegularizedLaplacian(city.Graph(), cfg.Alpha, cfg.Beta)
		if err != nil {
			t.Fatal(err)
		}
		reg, err := gp.Fit(kernel, obs, cfg.SensorNoise)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := reg.Predict(all)
		if err != nil {
			t.Fatal(err)
		}
		if got.Observations != len(obs) || len(got.Values) != len(want) {
			t.Fatalf("CrowdNoise %v: %d observations over %d vertices, reference %d over %d",
				cfg.CrowdNoise, got.Observations, len(got.Values), len(obs), len(want))
		}
		scale := 1.0
		for _, w := range want {
			scale = math.Max(scale, math.Abs(w))
		}
		for v := range want {
			if math.Abs(got.Values[v]-want[v]) > 1e-9*scale {
				t.Errorf("CrowdNoise %v: vertex %d: FlowMap %v, Fit+Predict %v", cfg.CrowdNoise, v, got.Values[v], want[v])
			}
		}
		if !slices.Equal(got.ObservedVertices, reg.Observed()) {
			t.Errorf("CrowdNoise %v: observed vertices %v, Fit's %v", cfg.CrowdNoise, got.ObservedVertices, reg.Observed())
		}
	}
}

// TestFlowMapRejectsHyperparameters: FlowMap refuses every α and β the
// model is undefined for. α = +Inf used to leave the singular Laplacian
// to InverseSPD, which factored it and returned a finite map with a nil
// error.
func TestFlowMapRejectsHyperparameters(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{City: city, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range city.Sensors()[:2] {
		sys.noteTraffic(traffic.Traffic(7*3600, s.ID, s.Intersection, s.Approach, 20, float64(300+600*i)))
	}
	if _, err := sys.FlowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		for _, cfg := range []MapConfig{
			{Alpha: bad, Beta: 1, SensorNoise: 2500},
			{Alpha: 2, Beta: bad, SensorNoise: 2500},
		} {
			if est, err := sys.FlowMap(cfg); err == nil {
				t.Errorf("FlowMap(α=%v, β=%v) = %d values and a nil error", cfg.Alpha, cfg.Beta, len(est.Values))
			}
		}
	}
}

// TestLatestReadingIsNewestNotLastAdmitted: rows are admitted in arrival
// order, so a delayed SCATS reading reaches noteTraffic after a newer
// one. One block whose arrivals rise while its event times fall must
// leave the newest flow in lastTraffic and in FlowMap's observation, and
// a row without a flow attribute is not a reading at all.
func TestLatestReadingIsNewestNotLastAdmitted(t *testing.T) {
	city := testCity(t)
	sys, err := New(Config{City: city, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sensor := city.Sensors()[0]
	const from = Time(7 * 3600)
	var sdes []dublin.SDE
	for i, flow := range []float64{900, 600, 300} { // newest first: times fall, arrivals rise
		ev := traffic.Traffic(from+Time(720-360*i), sensor.ID, sensor.Intersection, sensor.Approach, 20, flow)
		ev.Attrs["lon"], ev.Attrs["lat"] = sensor.Pos.Lon, sensor.Pos.Lat
		sdes = append(sdes, dublin.SDE{Event: ev, Arrival: from + Time(800+10*i)})
	}
	var rep *Report
	if err := runToEnd(context.Background())(sys.Pipeline(from, from+900, PipelineOptions{Replay: sdes, OnReport: func(r *Report) error {
		rep = r
		return nil
	}})); err != nil {
		t.Fatal(err)
	}
	if rep.FedEvents != 3 {
		t.Fatalf("fed %d rows, want 3", rep.FedEvents)
	}
	want := trafficReading{vertex: sensor.Vertex, flow: 900, t: from + 720}
	if got := sys.lastTraffic[sensor.ID]; got != want {
		t.Errorf("lastTraffic = %+v, want the newest reading %+v", got, want)
	}
	est, err := sys.FlowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500})
	if err != nil {
		t.Fatal(err)
	}
	// A single observation standardizes to zero: the estimate is its value.
	if got := est.Values[sensor.Vertex]; math.Abs(got-900) > 1e-9 {
		t.Errorf("FlowMap conditions on flow %v, want 900", got)
	}
	sys.noteTraffic(rtec.NewEvent(traffic.TrafficType, from+1080, sensor.ID, map[string]any{"density": 20.0}))
	if got := sys.lastTraffic[sensor.ID]; got != want {
		t.Errorf("a row without flow replaced the reading: %+v", got)
	}
}

// TestLatestReadingSurvivesCheckpoint: in the late regime (mediator
// delays beyond the sensor period) a run killed right after a checkpoint
// and resumed by a new System ends with, for every sensor, the newest
// reading admitted — the restored reading keeps its event time, so a
// stale one replayed or arriving after the restart cannot displace it.
func TestLatestReadingSurvivesCheckpoint(t *testing.T) {
	const from, until = 7 * 3600, 8 * 3600
	city, err := dublin.NewCity(dublin.Config{Seed: 42, NumBuses: 24, NumSensors: 60, MaxDelay: 600})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]trafficReading)
	lastAdmitted := make(map[string]Time)
	sdes := city.Collect(from, until)
	for _, sde := range sdes { // arrival order
		if sde.Event.Type != traffic.TrafficType || sde.Arrival > until {
			continue
		}
		flow, _ := sde.Event.Float("flow")
		lastAdmitted[sde.Event.Key] = sde.Event.Time
		if cur, ok := want[sde.Event.Key]; !ok || sde.Event.Time >= cur.t {
			want[sde.Event.Key] = trafficReading{flow: flow, t: sde.Event.Time}
		}
	}
	overtaken := 0
	for sensor, r := range want {
		if lastAdmitted[sensor] < r.t {
			overtaken++
		}
	}
	if overtaken == 0 {
		t.Fatal("no sensor's last-admitted reading is older than its newest: the scenario does not exercise the bug")
	}
	dir := t.TempDir()
	crashed, _, err := durableSystem(t, city).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{
		Dir: dir,
		CheckpointFailpoint: func(q Time) CheckpointCrash {
			if q == from+2*900 {
				return CrashAfterCheckpoint
			}
			return CrashNone
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := crashed.Run(context.Background()); !errors.Is(err, wal.ErrCrashPoint) {
		t.Fatalf("first epoch ended with %v, want the injected crash", err)
	}
	sys := durableSystem(t, city)
	resumed, info, err := sys.Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
	if err != nil {
		t.Fatal(err)
	}
	if !info.Resumed {
		t.Fatalf("second epoch did not resume: %+v", info)
	}
	if len(sys.lastTraffic) == 0 {
		t.Fatal("recovery restored no readings")
	}
	for sensor, r := range sys.lastTraffic {
		if r.t == 0 {
			t.Fatalf("restored reading of %s lost its event time", sensor)
		}
	}
	if _, err := resumed.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if len(sys.lastTraffic) != len(want) {
		t.Fatalf("%d sensors with a reading, want %d", len(sys.lastTraffic), len(want))
	}
	for sensor, w := range want {
		got := sys.lastTraffic[sensor]
		if got.flow != w.flow || got.t != w.t {
			t.Errorf("%s: latest reading (%v veh/h at %d), want (%v at %d)", sensor, got.flow, int64(got.t), w.flow, int64(w.t))
		}
	}
}
