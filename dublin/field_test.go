package dublin

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
)

// linearCongestionAt is the ground-truth field by its definition: a
// linear scan measuring p against every hotspot and every incident. The
// indexed CongestionAt is held to it bit for bit.
func linearCongestionAt(c *City, p geo.Point, t rtec.Time) float64 {
	hour := float64(t%(24*3600)) / 3600
	var best float64
	for i := range c.hotspots {
		h := &c.hotspots[i]
		d := geo.Distance(p, h.center)
		if d > 3*h.radiusM {
			continue
		}
		spatial := math.Exp(-d * d / (2 * h.radiusM * h.radiusM))
		temporal := h.baseline +
			(h.peak-h.baseline)*gauss(hour, h.morning, h.widthH) +
			(h.peak-h.baseline)*gauss(hour, h.evening, h.widthH)
		if v := spatial * temporal; v > best {
			best = v
		}
	}
	daily := t % (24 * 3600)
	for i := range c.incidents {
		in := &c.incidents[i]
		temporal := in.intensityAt(daily)
		if temporal == 0 {
			continue
		}
		d := geo.Distance(p, in.Center)
		if d > 3*in.RadiusM {
			continue
		}
		spatial := math.Exp(-d * d / (2 * in.RadiusM * in.RadiusM))
		if v := spatial * temporal; v > best {
			best = v
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

var (
	fuzzDublinOnce  sync.Once
	fuzzDublinGraph *citygraph.Graph
)

// fuzzGraph returns the street network a fuzz input's city is built on:
// the default Dublin network, or — for an odd layout byte and a valid
// anchor — a few dozen junctions scattered within 0.05° of the anchor,
// latitudes clamped at the poles and longitudes wrapped across the
// antimeridian, where the reach bounds go void.
func fuzzGraph(layout uint8, lat, lon float64, rng *rand.Rand) *citygraph.Graph {
	if layout%2 == 0 || !geo.At(lat, lon).Valid() {
		fuzzDublinOnce.Do(func() { fuzzDublinGraph = citygraph.GenerateDublin(citygraph.DublinConfig{}) })
		return fuzzDublinGraph
	}
	g := citygraph.NewGraph()
	for i := 0; i < 40; i++ {
		vLat := math.Max(-90, math.Min(90, lat+(rng.Float64()-0.5)*0.1))
		vLon := lon + (rng.Float64()-0.5)*0.1
		switch {
		case vLon > 180:
			vLon -= 360
		case vLon < -180:
			vLon += 360
		}
		g.AddVertex(geo.At(vLat, vLon))
	}
	return g
}

// fieldProbe draws a point and a time that stress the index: anywhere
// near or far from the city, near a congestion center, exactly on (or
// one ulp beside) a reach or witness box edge or a grid cell edge,
// non-finite coordinates; times across the whole day, around incident
// ramps and rush peaks, and beyond the first day.
func fieldProbe(c *City, rng *rand.Rand) (geo.Point, rtec.Time) {
	nudge := func(x float64) float64 {
		switch rng.Intn(3) {
		case 0:
			return math.Nextafter(x, math.Inf(-1))
		case 1:
			return math.Nextafter(x, math.Inf(1))
		}
		return x
	}
	edge := func(b geo.Box) geo.Point {
		lats := []float64{b.MinLat, b.MaxLat, (b.MinLat + b.MaxLat) / 2}
		lons := []float64{b.MinLon, b.MaxLon, (b.MinLon + b.MaxLon) / 2}
		return geo.At(nudge(lats[rng.Intn(3)]), nudge(lons[rng.Intn(3)]))
	}
	var boxes []geo.Box
	var centers []geo.Point
	for i := range c.hotspots {
		boxes = append(boxes, c.hotspots[i].reach, c.hotspots[i].witness)
		centers = append(centers, c.hotspots[i].center)
	}
	for i := range c.incidents {
		boxes = append(boxes, c.incidentBounds[i].reach, c.incidentBounds[i].witness)
		centers = append(centers, c.incidents[i].Center)
	}
	var p geo.Point
	switch k := rng.Intn(8); {
	case k == 0 && len(centers) > 0: // near a center, inside or just outside its reach
		ctr := centers[rng.Intn(len(centers))]
		p = geo.At(ctr.Lat+(rng.Float64()-0.5)*0.08, ctr.Lon+(rng.Float64()-0.5)*0.12)
	case k <= 2 && len(boxes) > 0:
		p = edge(boxes[rng.Intn(len(boxes))])
	case k == 3 && c.field.rows > 0: // a grid cell's edge
		p = geo.At(nudge(c.field.lat0+float64(rng.Intn(c.field.rows+1))*c.field.cellLat),
			nudge(c.field.lon0+float64(rng.Intn(c.field.cols+1))*c.field.cellLon))
	case k == 4: // non-finite
		bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 53.35}
		p = geo.At(bad[rng.Intn(4)], bad[rng.Intn(3)])
	case k == 5: // anywhere on the globe, the bounds included
		p = geo.At(nudge(-90+rng.Float64()*180), nudge(-180+rng.Float64()*360))
		if rng.Intn(4) == 0 {
			p = geo.At(90*float64(rng.Intn(3)-1), 180*float64(rng.Intn(3)-1))
		}
	default: // the city window and well outside it
		w := geo.Dublin.Expand(0.2, 0.3)
		p = geo.At(w.MinLat+rng.Float64()*(w.MaxLat-w.MinLat), w.MinLon+rng.Float64()*(w.MaxLon-w.MinLon))
	}
	t := rtec.Time(rng.Int63n(24 * 3600))
	switch rng.Intn(4) {
	case 0:
		if len(c.incidents) > 0 {
			in := c.incidents[rng.Intn(len(c.incidents))]
			t = in.Start + rtec.Time(rng.Int63n(int64(in.Duration)+600)) - 300
			t = max(t, 0)
		}
	case 1:
		t += rtec.Time(rng.Int63n(3)) * 24 * 3600
	case 2: // within minutes of a hotspot's rush peak, where its profile is highest
		if len(c.hotspots) > 0 {
			h := &c.hotspots[rng.Intn(len(c.hotspots))]
			peak := []float64{h.morning, h.evening}[rng.Intn(2)]
			t = max(rtec.Time(peak*3600)+rtec.Time(rng.Int63n(600))-300, 0)
		}
	}
	return p, t
}

// TestFieldAllocatesNothing: the field is asked about every generated
// bus report and SCATS reading; a call reads the static grid in place.
func TestFieldAllocatesNothing(t *testing.T) {
	city := mustCity(t, Config{Seed: 8, NumBuses: 2, NumSensors: 2, Hotspots: 400, Incidents: 10})
	p, tm := city.hotspots[0].center, rtec.Time(8*3600)
	if n := testing.AllocsPerRun(100, func() { city.CongestionAt(p, tm) }); n != 0 {
		t.Errorf("CongestionAt allocates %v objects per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { city.IsCongested(p, tm) }); n != 0 {
		t.Errorf("IsCongested allocates %v objects per call", n)
	}
}

// FuzzCongestionField holds the indexed field to its definition. For a
// city of 0-500 hotspots and 0-20 incidents, on the Dublin network or
// on one scattered around an arbitrary anchor (a pole, the
// antimeridian), CongestionAt equals the linear scan exactly at every
// valid WGS-84 point — whatever the grid cell or pre-check box it falls
// on the edge of — and reads 0 elsewhere (the scan also reads 0 at
// non-finite points); IsCongested agrees with the scan at the truth
// threshold.
func FuzzCongestionField(f *testing.F) {
	f.Add(int64(42), uint16(40), uint8(0), uint8(0), 53.35, -6.26)
	f.Add(int64(43), uint16(400), uint8(20), uint8(0), 0.0, 0.0)
	f.Add(int64(5), uint16(0), uint8(12), uint8(0), 0.0, 0.0)
	f.Add(int64(7), uint16(60), uint8(4), uint8(1), 89.97, 12.0)
	f.Add(int64(9), uint16(120), uint8(8), uint8(1), -12.5, 179.98)
	f.Add(int64(11), uint16(500), uint8(20), uint8(1), -89.99, -179.99)
	f.Fuzz(func(t *testing.T, seed int64, hotspots uint16, incidents uint8, layout uint8, lat, lon float64) {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{
			Seed:       seed,
			NumBuses:   1,
			NumSensors: 1,
			Hotspots:   int(hotspots % 501),
			Incidents:  int(incidents % 21),
			Graph:      fuzzGraph(layout, lat, lon, rng),
		}
		if cfg.Hotspots == 0 {
			cfg.Hotspots = -1 // none: 0 selects the default
		}
		city, err := NewCity(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 256; k++ {
			p, tm := fieldProbe(city, rng)
			want := 0.0
			if p.Valid() || math.IsNaN(p.Lat+p.Lon) || math.IsInf(p.Lat+p.Lon, 0) {
				want = linearCongestionAt(city, p, tm)
			}
			if got := city.CongestionAt(p, tm); got != want {
				t.Fatalf("CongestionAt(%v, %d) = %v, want %v", p, tm, got, want)
			}
			if got, want := city.IsCongested(p, tm), want >= CongestionTruthThreshold; got != want {
				t.Fatalf("IsCongested(%v, %d) = %v, want %v", p, tm, got, want)
			}
		}
	})
}
