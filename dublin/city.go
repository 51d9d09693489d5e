// Package dublin simulates the data substrate of the paper's
// evaluation: the Dublin bus and SCATS streams of January 2013
// (dublinked.ie). The real streams are 13 GB of recorded data; this
// package generates statistically matched synthetic streams instead —
// same entity counts (942 buses, 966 SCATS sensors), same emission
// periods (buses every 20–30 s, SCATS every 6 min, ≈ one bus SDE every
// 2 s in aggregate), same attribute schemas, the same four-region
// partition used to distribute CE recognition — driven by a seeded,
// fully deterministic city model.
//
// Unlike the recorded streams, the synthetic city has an explicit
// ground-truth congestion field, so the veracity-handling components
// can be scored against truth: noisy buses are simulated by flipping
// congestion reports, and mediators inject the delays, drops and
// aggregation artefacts that motivate the paper's windowing and
// crowdsourcing machinery.
package dublin

import (
	"fmt"
	"math/rand"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Config parameterizes the synthetic city.
type Config struct {
	// Seed drives every random choice; the same seed reproduces the
	// same city and the same streams.
	Seed int64
	// NumBuses is the bus fleet size. Default 942, the paper's count.
	NumBuses int
	// NumSensors is the SCATS detector count. Default 966.
	NumSensors int
	// Graph is the street network; generated with the default
	// DublinConfig when nil.
	Graph *citygraph.Graph
	// BusPeriodMin/Max bound the per-bus emission period in seconds.
	// Defaults 20 and 30 ("buses transmit information about their
	// position and congestions every 20-30 sec").
	BusPeriodMin, BusPeriodMax rtec.Time
	// ScatsPeriod is the SCATS emission period in seconds. Default
	// 360 ("static sensors ... transmit every 6 minutes").
	ScatsPeriod rtec.Time
	// Hotspots is the number of congestion centers. Default 40.
	Hotspots int
	// NoisyBusFraction is the fraction of buses with a faulty
	// congestion detector that inverts its report 80% of the time.
	// Default 0.05.
	NoisyBusFraction float64
	// NoisyScatsFraction is the fraction of SCATS sensors that are
	// miscalibrated and report the inverse congestion state (the
	// mediator-interference failure mode of Section 1; the paper
	// sketches crowd-based SCATS reliability evaluation in
	// Section 4.3). Default 0.
	NoisyScatsFraction float64
	// DropProb is the probability that a mediator silently drops an
	// SDE. Default 0.01.
	DropProb float64
	// MaxDelay is the maximum mediator-induced arrival delay in
	// seconds (uniform in [0, MaxDelay]). Default 45. Delays are what
	// make working memories larger than the step worthwhile (Fig. 2).
	MaxDelay rtec.Time
	// Incidents is the number of random traffic incidents (accidents,
	// breakdowns) injected over each simulated day: sudden, localized
	// congestion decoupled from the rush-hour pattern — the "unusual
	// events throughout the network" the INSIGHT project wants
	// detected. Default 0.
	Incidents int
	// RouteLength is the number of street segments in each bus
	// line's loop. Default 120.
	RouteLength int
	// EdgeSeconds is the nominal traversal time of one street
	// segment. Default 40.
	EdgeSeconds rtec.Time
}

func (c Config) withDefaults() Config {
	if c.NumBuses == 0 {
		c.NumBuses = 942
	}
	if c.NumSensors == 0 {
		c.NumSensors = 966
	}
	if c.BusPeriodMin == 0 {
		c.BusPeriodMin = 20
	}
	if c.BusPeriodMax == 0 {
		c.BusPeriodMax = 30
	}
	if c.ScatsPeriod == 0 {
		c.ScatsPeriod = 360
	}
	if c.Hotspots == 0 {
		c.Hotspots = 40
	}
	if c.NoisyBusFraction == 0 {
		c.NoisyBusFraction = 0.05
	}
	if c.DropProb == 0 {
		c.DropProb = 0.01
	}
	if c.MaxDelay == 0 {
		c.MaxDelay = 45
	}
	if c.RouteLength == 0 {
		c.RouteLength = 120
	}
	if c.EdgeSeconds == 0 {
		c.EdgeSeconds = 40
	}
	return c
}

// CongestionTruthThreshold is the ground-truth intensity above which a
// location counts as congested. The sensor reading model is calibrated
// so that the default CE thresholds of the traffic package detect
// congestion at the same intensity.
const CongestionTruthThreshold = 0.7

// Sensor is a SCATS vehicle detector placed at a street junction.
type Sensor struct {
	ID           string
	Intersection string
	Approach     string
	Vertex       int
	Pos          geo.Point
	// Noisy marks a miscalibrated detector that reports the inverse
	// congestion state.
	Noisy bool
}

// Bus is one vehicle of the fleet.
type Bus struct {
	ID       string
	Line     string
	Operator string
	Noisy    bool // faulty congestion detector
	route    []int
	offset   rtec.Time // phase offset of the loop
}

// hotspot is a congestion center with a daily activity profile.
type hotspot struct {
	center   geo.Point
	radiusM  float64
	peak     float64 // peak intensity in (0, 1]
	morning  float64 // center of the morning peak, hours
	evening  float64 // center of the evening peak, hours
	widthH   float64 // peak width, hours
	baseline float64 // off-peak intensity
	bounds
}

// Incident is a sudden localized congestion event (an accident or
// breakdown), independent of the daily rush pattern.
type Incident struct {
	Center   geo.Point
	RadiusM  float64
	Start    rtec.Time // seconds into the day
	Duration rtec.Time
	Severity float64 // peak intensity in (0, 1]
}

// intensityAt returns the incident's temporal envelope at daily second
// t (ramping up and down over 10% of the duration at each edge): at
// most Severity, 0 outside the incident.
func (in Incident) intensityAt(t rtec.Time) float64 {
	if t < in.Start || t > in.Start+in.Duration {
		return 0
	}
	ramp := float64(in.Duration) / 10
	into := float64(t - in.Start)
	left := float64(in.Start + in.Duration - t)
	f := 1.0
	if into < ramp {
		f = into / ramp
	}
	if left < ramp && left/ramp < f {
		f = left / ramp
	}
	return in.Severity * f
}

// City is the deterministic synthetic city: street network, SCATS
// deployment, bus fleet and ground-truth congestion field.
type City struct {
	cfg           Config
	graph         *citygraph.Graph
	sensors       []Sensor
	intersections []traffic.Intersection
	buses         []Bus
	hotspots      []hotspot
	field         fieldGrid // hotspots by reach
	incidents     []Incident
	// incidentBounds[i] pre-checks incidents[i]; incidents are few
	// enough per day to scan.
	incidentBounds []bounds
}

// NewCity builds the city for the configuration.
func NewCity(cfg Config) (*City, error) {
	cfg = cfg.withDefaults()
	if cfg.BusPeriodMin <= 0 || cfg.BusPeriodMax < cfg.BusPeriodMin {
		return nil, fmt.Errorf("dublin: invalid bus period bounds [%d, %d]", cfg.BusPeriodMin, cfg.BusPeriodMax)
	}
	if cfg.NumBuses < 0 || cfg.NumSensors < 0 {
		return nil, fmt.Errorf("dublin: negative entity counts")
	}
	g := cfg.Graph
	if g == nil {
		g = citygraph.GenerateDublin(citygraph.DublinConfig{Seed: cfg.Seed})
	}
	if g.NumVertices() == 0 {
		return nil, fmt.Errorf("dublin: empty street network")
	}
	c := &City{cfg: cfg, graph: g}
	r := rand.New(rand.NewSource(cfg.Seed + 1))
	c.placeSensors(r)
	c.placeHotspots(r)
	c.buildFleet(r)
	c.scheduleIncidents(r)
	c.field = newFieldGrid(c.hotspots)
	return c, nil
}

// scheduleIncidents draws the day's random incidents.
func (c *City) scheduleIncidents(r *rand.Rand) {
	n := c.graph.NumVertices()
	for i := 0; i < c.cfg.Incidents; i++ {
		v := c.graph.Vertex(r.Intn(n))
		in := Incident{
			Center:   v.Pos,
			RadiusM:  300 + r.Float64()*400,
			Start:    rtec.Time(r.Int63n(24 * 3600)),
			Duration: rtec.Time(1800 + r.Int63n(3600)), // 30-90 min
			Severity: 0.8 + r.Float64()*0.2,
		}
		c.incidents = append(c.incidents, in)
		c.incidentBounds = append(c.incidentBounds, newBounds(in.Center, in.RadiusM, in.Severity))
	}
}

// Incidents returns the day's scheduled incidents (shared slice).
func (c *City) Incidents() []Incident { return c.incidents }

// placeSensors distributes the SCATS detectors over junction
// intersections, 1-4 sensors per intersection.
func (c *City) placeSensors(r *rand.Rand) {
	n := c.graph.NumVertices()
	perm := r.Perm(n)
	placed := 0
	for _, v := range perm {
		if placed >= c.cfg.NumSensors {
			break
		}
		// Prefer junctions where several streets meet.
		want := 1 + r.Intn(4)
		if deg := c.graph.Degree(v); want > deg && deg > 0 {
			want = deg
		}
		if placed+want > c.cfg.NumSensors {
			want = c.cfg.NumSensors - placed
		}
		interID := fmt.Sprintf("int%04d", len(c.intersections))
		inter := traffic.Intersection{
			ID:             interID,
			Pos:            c.graph.Vertex(v).Pos,
			SensorApproach: make(map[string]string),
		}
		for k := 0; k < want; k++ {
			s := Sensor{
				ID:           fmt.Sprintf("scats%04d", placed),
				Intersection: interID,
				Approach:     fmt.Sprintf("A%d", k+1),
				Vertex:       v,
				Pos:          inter.Pos,
				Noisy:        r.Float64() < c.cfg.NoisyScatsFraction,
			}
			inter.Sensors = append(inter.Sensors, s.ID)
			inter.SensorApproach[s.ID] = s.Approach
			c.sensors = append(c.sensors, s)
			placed++
		}
		c.intersections = append(c.intersections, inter)
	}
}

func (c *City) placeHotspots(r *rand.Rand) {
	n := c.graph.NumVertices()
	for i := 0; i < c.cfg.Hotspots; i++ {
		v := c.graph.Vertex(r.Intn(n))
		h := hotspot{
			center:   v.Pos,
			radiusM:  400 + r.Float64()*800,
			peak:     0.75 + r.Float64()*0.25,
			morning:  8 + r.NormFloat64()*0.5,
			evening:  17.5 + r.NormFloat64()*0.5,
			widthH:   1 + r.Float64(),
			baseline: r.Float64() * 0.25,
		}
		h.bounds = newBounds(h.center, h.radiusM, h.maxTemporal())
		c.hotspots = append(c.hotspots, h)
	}
}

func (c *City) buildFleet(r *rand.Rand) {
	operators := []string{"DublinBus", "GoAhead", "BusEireann", "Luas"}
	n := c.graph.NumVertices()
	for i := 0; i < c.cfg.NumBuses; i++ {
		route := randomLoop(c.graph, r.Intn(n), c.cfg.RouteLength, r)
		c.buses = append(c.buses, Bus{
			ID:       fmt.Sprintf("bus%05d", 33000+i),
			Line:     fmt.Sprintf("r%d", 1+i/4), // ~4 buses per line
			Operator: operators[i%len(operators)],
			Noisy:    r.Float64() < c.cfg.NoisyBusFraction,
			route:    route,
			offset:   rtec.Time(r.Intn(int(c.cfg.EdgeSeconds) * len(route))),
		})
	}
}

// randomLoop walks the graph avoiding immediate backtracking and
// closes the loop by appending the reverse path.
func randomLoop(g *citygraph.Graph, start, length int, r *rand.Rand) []int {
	if length < 2 {
		length = 2
	}
	out := make([]int, 0, 2*length)
	out = append(out, start)
	prev := -1
	cur := start
	for len(out) < length {
		nbrs := g.Neighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		next := nbrs[r.Intn(len(nbrs))]
		if next == prev && len(nbrs) > 1 {
			// try once more to avoid an immediate U-turn
			next = nbrs[r.Intn(len(nbrs))]
		}
		out = append(out, next)
		prev, cur = cur, next
	}
	// Close the loop by driving back the same way (a bus line's
	// return direction).
	for i := len(out) - 2; i > 0; i-- {
		out = append(out, out[i])
	}
	return out
}

// Graph returns the street network.
func (c *City) Graph() *citygraph.Graph { return c.graph }

// Sensors returns the SCATS deployment (shared slice).
func (c *City) Sensors() []Sensor { return c.sensors }

// Intersections returns the SCATS intersections (shared slice).
func (c *City) Intersections() []traffic.Intersection { return c.intersections }

// Buses returns the fleet (shared slice).
func (c *City) Buses() []Bus { return c.buses }

// Registry builds the traffic.Registry of the SCATS intersections with
// the given close-predicate threshold in meters.
func (c *City) Registry(closeMeters float64) (*traffic.Registry, error) {
	return traffic.NewRegistry(c.intersections, closeMeters)
}

// BusPosition returns where a bus is at an absolute time, interpolated
// along its looped route.
func (c *City) BusPosition(b *Bus, t rtec.Time) geo.Point {
	if len(b.route) < 2 {
		return c.graph.Vertex(b.route[0]).Pos
	}
	loop := rtec.Time(len(b.route)) * c.cfg.EdgeSeconds
	phase := (t + b.offset) % loop
	idx := int(phase / c.cfg.EdgeSeconds)
	frac := float64(phase%c.cfg.EdgeSeconds) / float64(c.cfg.EdgeSeconds)
	from := c.graph.Vertex(b.route[idx]).Pos
	to := c.graph.Vertex(b.route[(idx+1)%len(b.route)]).Pos
	return geo.Point{
		Lat: from.Lat + (to.Lat-from.Lat)*frac,
		Lon: from.Lon + (to.Lon-from.Lon)*frac,
	}
}

// busDirection reports which half of the loop the bus is on (0
// outbound, 1 return), the paper's gps Direction attribute.
func (c *City) busDirection(b *Bus, t rtec.Time) int {
	loop := rtec.Time(len(b.route)) * c.cfg.EdgeSeconds
	phase := (t + b.offset) % loop
	if int(phase/c.cfg.EdgeSeconds) < len(b.route)/2 {
		return 0
	}
	return 1
}

// SensorReading returns the (density, flow) pair a SCATS sensor
// measures at time t, before mediator noise. The mapping is calibrated
// against the traffic package's default thresholds: intensity ≥ 0.7
// produces density ≥ 0.35 and flow ≤ 600 (the fundamental diagram's
// congested branch: high density, low flow).
func (c *City) SensorReading(s *Sensor, t rtec.Time) (density, flow float64) {
	intensity := c.CongestionAt(s.Pos, t)
	if s.Noisy {
		intensity = 1 - intensity // miscalibrated detector
	}
	density = 0.05 + 0.9*intensity
	flow = 1500 - 1300*intensity
	return density, flow
}

// PartitionOf assigns an event to one of the geo.NumRegions Dublin
// areas by its coordinates, for distributed CE recognition. Events
// without coordinates go to the Central partition.
func PartitionOf(e rtec.Event) int {
	lon, ok1 := e.Float("lon")
	lat, ok2 := e.Float("lat")
	if !ok1 || !ok2 {
		return int(geo.Central)
	}
	return int(geo.RegionOf(geo.LonLat(lon, lat)))
}

// PartitionOfBlock is the block-level counterpart of PartitionOf, the
// router rtec.Partitioned takes for blocks: the coordinate columns are
// located once per block, and the returned function assigns one row by
// indexing them directly — the same partition PartitionOf computes on
// the row's view Event, including the float coercion and the Central
// fallback for rows without coordinates.
func PartitionOfBlock(b *rtec.Block) func(int) int {
	lon, lat := b.Column("lon"), b.Column("lat")
	at := func(c *rtec.BCol, i int) (float64, bool) {
		switch {
		case c == nil:
			return 0, false
		case c.Kind == rtec.ColFloat:
			return c.F[i], true
		case c.Kind == rtec.ColInt:
			return float64(c.I[i]), true
		}
		return 0, false
	}
	return func(i int) int {
		x, ok1 := at(lon, i)
		y, ok2 := at(lat, i)
		if !ok1 || !ok2 {
			return int(geo.Central)
		}
		return int(geo.RegionOf(geo.LonLat(x, y)))
	}
}
