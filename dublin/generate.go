package dublin

import (
	"container/heap"
	"math/rand"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// SDE is one simple derived event of the synthetic stream, with its
// mediator-assigned arrival time. Occurrence (Event.Time) and Arrival
// differ because "sensor data may go through multiple mediators en
// route" (Section 1); the RTEC window/step machinery exists to absorb
// exactly this gap.
type SDE struct {
	Event   rtec.Event
	Arrival rtec.Time
}

// Generator streams the city's SDEs over a time range in occurrence
// order. It is deterministic for a given city and range.
type Generator struct {
	city  *City
	until rtec.Time
	queue emitterHeap
	rng   *rand.Rand

	// per-bus delay state for the delay attribute
	busDelay []float64
}

type emitter struct {
	next  rtec.Time
	kind  int // 0 = bus, 1 = sensor
	index int
}

type emitterHeap []emitter

func (h emitterHeap) Len() int           { return len(h) }
func (h emitterHeap) Less(i, j int) bool { return h[i].next < h[j].next }
func (h emitterHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *emitterHeap) Push(x any)        { *h = append(*h, x.(emitter)) }
func (h *emitterHeap) Pop() any          { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// Stream creates a generator for SDEs occurring in [from, until).
func (c *City) Stream(from, until rtec.Time) *Generator {
	g := &Generator{
		city:     c,
		until:    until,
		rng:      rand.New(rand.NewSource(c.cfg.Seed + 7)),
		busDelay: make([]float64, len(c.buses)),
	}
	// Stagger first emissions deterministically.
	for i := range c.buses {
		period := int64(c.cfg.BusPeriodMax)
		g.queue = append(g.queue, emitter{
			next:  from + rtec.Time(g.rng.Int63n(period)),
			kind:  0,
			index: i,
		})
	}
	for i := range c.sensors {
		g.queue = append(g.queue, emitter{
			next:  from + rtec.Time(g.rng.Int63n(int64(c.cfg.ScatsPeriod))),
			kind:  1,
			index: i,
		})
	}
	heap.Init(&g.queue)
	return g
}

// rawSDE is one synthesized event before materialization: the typed
// fields a columnar batch appends directly, without building an
// attribute map. kind 0 carries the bus fields, kind 1 the sensor
// fields; static attributes (route/line labels, sensor identifiers)
// are looked up from the city by index at append time.
type rawSDE struct {
	kind    int // 0 = bus, 1 = sensor
	index   int
	t       rtec.Time
	arrival rtec.Time

	// bus fields
	pos       geo.Point
	delay     int64
	direction int
	congested bool

	// sensor fields
	density float64
	flow    float64
}

// Next returns the next SDE in occurrence order. Dropped events
// (mediator losses) are skipped transparently. ok is false when the
// range is exhausted.
func (g *Generator) Next() (SDE, bool) {
	raw, ok := g.nextRaw()
	if !ok {
		return SDE{}, false
	}
	return SDE{Event: g.materialize(raw), Arrival: raw.arrival}, true
}

// nextRaw advances the generator by one emitted event, skipping
// mediator drops. All randomness is drawn here (and in busRaw /
// sensorRaw), in exactly the order of the historical per-event
// generator, so raw and materialized streams are bit-identical.
func (g *Generator) nextRaw() (rawSDE, bool) {
	for {
		if g.queue.Len() == 0 {
			return rawSDE{}, false
		}
		e := g.queue[0]
		if e.next >= g.until {
			return rawSDE{}, false
		}
		var raw rawSDE
		if e.kind == 0 {
			raw = g.busRaw(e.index, e.next)
			period := g.city.cfg.BusPeriodMin +
				rtec.Time(g.rng.Int63n(int64(g.city.cfg.BusPeriodMax-g.city.cfg.BusPeriodMin)+1))
			g.queue[0].next = e.next + period
		} else {
			raw = g.sensorRaw(e.index, e.next)
			g.queue[0].next = e.next + g.city.cfg.ScatsPeriod
		}
		heap.Fix(&g.queue, 0)

		// Mediator: drop or delay.
		if g.rng.Float64() < g.city.cfg.DropProb {
			continue
		}
		delay := rtec.Time(0)
		if g.city.cfg.MaxDelay > 0 {
			delay = rtec.Time(g.rng.Int63n(int64(g.city.cfg.MaxDelay) + 1))
		}
		raw.arrival = raw.t + delay
		return raw, true
	}
}

// materialize builds the map-backed event of a raw SDE (the per-item
// representation; columnar consumers append the raw fields directly).
func (g *Generator) materialize(r rawSDE) rtec.Event {
	if r.kind == 0 {
		b := &g.city.buses[r.index]
		return traffic.Move(r.t, b.ID, b.Line, b.Operator, r.delay, r.pos, r.direction, r.congested)
	}
	s := &g.city.sensors[r.index]
	ev := traffic.Traffic(r.t, s.ID, s.Intersection, s.Approach, r.density, r.flow)
	ev.Attrs["lon"] = s.Pos.Lon
	ev.Attrs["lat"] = s.Pos.Lat
	return ev
}

// busRaw synthesizes one move SDE: position along the route, the
// schedule delay (which grows inside congested areas and recovers
// outside, driving the delayIncrease CE), and the congestion flag
// (inverted 80% of the time for noisy buses).
func (g *Generator) busRaw(i int, t rtec.Time) rawSDE {
	b := &g.city.buses[i]
	pos := g.city.BusPosition(b, t)
	truth := g.city.IsCongested(pos, t)

	// Delay dynamics: congestion adds up to ~8 s of schedule delay
	// per emission period; free flow recovers ~2 s.
	if truth {
		g.busDelay[i] += 4 + g.rng.Float64()*4
	} else if g.busDelay[i] > 0 {
		g.busDelay[i] -= 2 * g.rng.Float64()
		if g.busDelay[i] < 0 {
			g.busDelay[i] = 0
		}
	}

	report := truth
	if b.Noisy && g.rng.Float64() < 0.8 {
		report = !truth
	}
	return rawSDE{
		kind:      0,
		index:     i,
		t:         t,
		pos:       pos,
		delay:     int64(g.busDelay[i]),
		direction: g.city.busDirection(b, t),
		congested: report,
	}
}

// sensorRaw synthesizes one traffic SDE with measurement noise. The
// event carries the intersection coordinates as extra attributes so
// the stream can be partitioned geographically.
func (g *Generator) sensorRaw(i int, t rtec.Time) rawSDE {
	s := &g.city.sensors[i]
	density, flow := g.city.SensorReading(s, t)
	density += g.rng.NormFloat64() * 0.02
	flow += g.rng.NormFloat64() * 40
	if density < 0 {
		density = 0
	}
	if density > 1 {
		density = 1
	}
	if flow < 0 {
		flow = 0
	}
	return rawSDE{kind: 1, index: i, t: t, density: density, flow: flow}
}

// drain hands every SDE of the generator's range to emit in arrival
// order, ties in generation order — exactly the permutation a stable
// sort of the Next sequence by arrival applies — without holding the
// range. Occurrence times never decrease and an arrival is its
// occurrence plus a delay in [0, MaxDelay], so once the generator
// reaches time t every arrival before t is final. The SDEs not yet
// final wait in a ring of MaxDelay+1 one-second buckets, each in
// generation order: at most MaxDelay seconds of the stream.
func (g *Generator) drain(emit func(rawSDE)) {
	w := max(g.city.cfg.MaxDelay, 0) + 1
	ring := make([][]rawSDE, w)
	bucket := func(arrival rtec.Time) *[]rawSDE { return &ring[(arrival%w+w)%w] }
	var cur rtec.Time // the earliest arrival second not yet emitted
	pending := 0
	flush := func() {
		b := bucket(cur)
		for _, r := range *b {
			emit(r)
		}
		pending -= len(*b)
		*b = (*b)[:0]
		cur++
	}
	for {
		r, ok := g.nextRaw()
		if !ok {
			break
		}
		for pending > 0 && cur < r.t {
			flush()
		}
		if pending == 0 {
			cur = r.t
		}
		b := bucket(r.arrival)
		*b = append(*b, r)
		pending++
	}
	for pending > 0 {
		flush()
	}
}

// Collect materializes the SDEs of [from, until) in arrival order — the
// order a live system would receive them in — ties in occurrence order.
// It holds the range's materialized events, one attribute map each, and
// at most MaxDelay seconds of raw events besides: suitable for spans up
// to a few hours; use Stream for month-scale runs, or CollectBatches for
// the columnar form.
func (c *City) Collect(from, until rtec.Time) []SDE {
	var out []SDE
	g := c.Stream(from, until)
	g.drain(func(r rawSDE) {
		out = append(out, SDE{Event: g.materialize(r), Arrival: r.arrival})
	})
	return out
}
