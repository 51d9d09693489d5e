// Package traffic contains the complex event definitions of the
// INSIGHT Dublin deployment (Section 4.3 of Artikis et al., EDBT
// 2014), expressed over the rtec engine:
//
//   - scatsCongestion — congestion at a single SCATS sensor, from
//     density/flow thresholds (rule-set 2);
//   - scatsIntCongestion — congestion at a SCATS intersection, when at
//     least n of its sensors are congested;
//   - busCongestion — congestion at an area of interest reported by
//     buses (rule-set 3), with the self-adaptive variant that discards
//     unreliable buses (rule-set 3′);
//   - sourceDisagreement — maximal intervals during which buses and
//     SCATS sensors disagree on congestion (the trigger for
//     crowdsourcing);
//   - disagree / agree — instantaneous bus-vs-SCATS (dis)agreement
//     events;
//   - noisy — the bus-unreliability fluent, in both the
//     crowd-validated form (rule-set 4) and the pessimistic form
//     (rule-set 5);
//   - delayIncrease — sharp increase in a bus's delay (Section 4.1);
//   - densityTrend — the per-sensor density trend congestionInTheMake
//     reads;
//   - congestionInTheMake — elevated, still-rising density that has
//     not crossed the congestion thresholds yet (the proactive
//     monitoring of Section 1);
//   - unusualCongestion — intersection congestion outside the expected
//     rush hours (the INSIGHT project's unusual-event detection goal);
//   - scatsApproachCongestion — the structured sensor → approach →
//     intersection congestion hierarchy (Config.StructuredIntersections).
//
// agree, densityTrend and scatsApproachCongestion are internal: they
// feed other rules and are no output of the set (rtec.Builder.Output).
//
// The package also defines the SDE vocabulary: constructors for the
// move (bus), traffic (SCATS) and crowd input events, and the
// intersection registry that ties sensors and coordinates together.
package traffic

import (
	"fmt"
	"math"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
)

// SDE type names.
const (
	// MoveType is the bus SDE: move(Bus, Line, Operator, Delay)
	// combined with the simultaneous gps(Bus, Lon, Lat, Direction,
	// Congestion) fluent sample of formalisation (1). The Dublin bus
	// feed delivers both in one record, so the Go representation
	// carries the gps attributes on the move event.
	MoveType = "move"
	// TrafficType is the SCATS SDE: traffic(Int, A, S, D, F).
	TrafficType = "traffic"
	// CrowdType is the crowdsourcing verdict event:
	// crowd(LonInt, LatInt, Val).
	CrowdType = "crowd"
)

// CloseColumn is the move attribute that carries the report's close/4
// join precomputed: a []int32 of ascending indexes into
// AreaIndex(cfg).Intersections(), the areas within the close threshold
// of the report's (lon, lat). The pipeline's input stage stamps it on
// every move batch, so the rules never evaluate the join themselves; a
// move without it is joined against its position instead.
const CloseColumn = "close"

// Derived CE names.
const (
	ScatsCongestion         = "scatsCongestion"
	ScatsApproachCongestion = "scatsApproachCongestion"
	ScatsIntCongestion      = "scatsIntCongestion"
	BusCongestion           = "busCongestion"
	SourceDisagreement      = "sourceDisagreement"
	Disagree                = "disagree"
	Agree                   = "agree"
	Noisy                   = "noisy"
	DelayIncrease           = "delayIncrease"
	CongestionInMake        = "congestionInTheMake"
	UnusualCongestion       = "unusualCongestion"
	DensityTrend            = "densityTrend"
)

// Names of rules the set no longer defines: nothing read them. The
// per-rule cost list of cmd/e2ebench still names them, where they read 0.
const (
	FlowTrend  = "flowTrend"
	NoisyScats = "noisyScats"
)

// Move builds a bus SDE. bus identifies the vehicle; delay is in
// seconds (positive = behind schedule); direction is 0 or 1; congested
// is the congestion flag the bus reports for its current location.
func Move(t rtec.Time, bus, line, operator string, delay int64, pos geo.Point, direction int, congested bool) rtec.Event {
	return rtec.NewEvent(MoveType, t, bus, map[string]any{
		"line":      line,
		"operator":  operator,
		"delay":     delay,
		"lon":       pos.Lon,
		"lat":       pos.Lat,
		"direction": int64(direction),
		"congested": congested,
	})
}

// Traffic builds a SCATS SDE. sensor identifies the vehicle detector,
// intersection the junction it is mounted on and approach the lane
// approach; density and flow are the measured values.
func Traffic(t rtec.Time, sensor, intersection, approach string, density, flow float64) rtec.Event {
	return rtec.NewEvent(TrafficType, t, sensor, map[string]any{
		"intersection": intersection,
		"approach":     approach,
		"density":      density,
		"flow":         flow,
	})
}

// Crowd verdict values.
const (
	Positive = "positive" // the crowd reports a congestion
	Negative = "negative" // the crowd reports no congestion
)

// CrowdVerdict builds a crowd SDE for the intersection: the output of
// the crowdsourcing component stating whether there was a congestion
// at the SCATS intersection according to the human crowd.
//
//lint:allow unusedapi the crowd verdict SDE; Example_crowdresolve feeds one back by hand
func CrowdVerdict(t rtec.Time, intersection string, val string) rtec.Event {
	return rtec.NewEvent(CrowdType, t, intersection, map[string]any{"value": val})
}

// Intersection describes a SCATS intersection: its identifier, its
// location (the paper's (LonInt, LatInt)) and the sensors mounted on
// its approaches.
type Intersection struct {
	ID      string
	Pos     geo.Point
	Sensors []string
	// SensorApproach optionally maps each sensor to its lane
	// approach, enabling the structured intersection-congestion
	// definition of Section 4.3 ("intersection congestion ...
	// depends on approach congestion which in turn would depend on
	// sensor congestion"). Sensors without an entry form their own
	// single-sensor approach.
	SensorApproach map[string]string
}

// approaches groups the intersection's sensors by approach label.
func (in Intersection) approaches() map[string][]string {
	out := make(map[string][]string)
	for _, s := range in.Sensors {
		label := in.SensorApproach[s]
		if label == "" {
			label = s // its own approach
		}
		out[label] = append(out[label], s)
	}
	return out
}

// Registry holds the SCATS intersections and provides the spatial
// lookup behind the paper's close/4 predicate (see closeindex.go). It is
// immutable after NewRegistry and safe for concurrent use.
type Registry struct {
	intersections []Intersection
	byID          map[string]int
	grid          closeGrid
	closeMeters   float64
}

// NewRegistry indexes the intersections for proximity lookups with the
// given close-predicate threshold in meters.
func NewRegistry(intersections []Intersection, closeMeters float64) (*Registry, error) {
	if !(closeMeters > 0) || math.IsInf(closeMeters, 0) {
		return nil, fmt.Errorf("traffic: close threshold must be positive and finite, got %v", closeMeters)
	}
	r := &Registry{
		intersections: append([]Intersection(nil), intersections...),
		byID:          make(map[string]int, len(intersections)),
		closeMeters:   closeMeters,
	}
	for i, in := range r.intersections {
		if in.ID == "" {
			return nil, fmt.Errorf("traffic: intersection %d has empty ID", i)
		}
		if _, dup := r.byID[in.ID]; dup {
			return nil, fmt.Errorf("traffic: duplicate intersection %q", in.ID)
		}
		if !in.Pos.Valid() {
			return nil, fmt.Errorf("traffic: intersection %q has invalid position %v", in.ID, in.Pos)
		}
		r.byID[in.ID] = i
	}
	r.grid = newCloseGrid(r.intersections, closeMeters)
	return r, nil
}

// CloseMeters returns the close-predicate threshold.
func (r *Registry) CloseMeters() float64 { return r.closeMeters }

// Intersections returns all registered intersections (shared slice).
func (r *Registry) Intersections() []Intersection { return r.intersections }

// Lookup returns the intersection with the given ID.
func (r *Registry) Lookup(id string) (Intersection, bool) {
	i, ok := r.byID[id]
	if !ok {
		return Intersection{}, false
	}
	return r.intersections[i], true
}

// CloseTo returns the intersections within the close threshold of p,
// implementing the paper's close(LonB, LatB, LonInt, LatInt)
// predicate, in registration order. It allocates the result; per-event
// callers use AppendClose.
//
//lint:allow unusedapi close/4 of Section 4 as a plain query, the reference AppendClose is tested against
func (r *Registry) CloseTo(p geo.Point) []Intersection {
	var buf [8]int32
	near := r.AppendClose(buf[:0], p)
	if len(near) == 0 {
		return nil
	}
	out := make([]Intersection, len(near))
	for j, i := range near {
		out[j] = r.intersections[i]
	}
	return out
}

// ApproachKey is the fluent key of scatsApproachCongestion for one
// lane approach of an intersection.
func ApproachKey(intersection, approach string) string {
	return intersection + "/" + approach
}

// eachCloseMove calls fn once per (move event, close area) pair of the
// context's view with an area index below limit, in event order then
// ascending area index: the join of rule-sets (3)–(5) between bus
// reports and the places they are close/4 to. areas is the rule set's
// AreaIndex; limit is its SCATS prefix for agree and disagree, its
// length for busCongestion. fn gets the report's time and bus and the
// bus's own congestion flag. skipNoisy drops the reports of buses for
// which noisy holds at the time of the report, probed only for reports
// close to some area.
//
// A move stamped under CloseColumn carries its close list; any other —
// a map-backed Input event, a block that skipped the pipeline's input
// stage, a log record older than the stamp — is joined here against its
// position, and each such join is counted in the query's Stats.Joins.
// Both paths yield the same pairs: the stamp is AppendClose's answer.
// Every read goes through the view's column handles; only the fallback
// builds the report's Event.
func eachCloseMove(ctx *rtec.Context, areas *Registry, limit int32, skipNoisy bool, fn func(t rtec.Time, key string, congested bool, area int32)) {
	rows := ctx.Rows(MoveType)
	// The columns and the noisy fluent are resolved once per view.
	closeCol, congestedCol := rows.Col(CloseColumn), rows.Col("congested")
	noisy := ctx.FluentInstances(Noisy)
	var near []int32 // the fallback's join, reused across rows
	joins := 0
	for i := 0; i < rows.Len(); i++ {
		close, stamped := closeCol.IntList(i)
		if !stamped {
			//lint:allow hotalloc the unstamped fallback: one Event per report it joins, which costs far more
			e := rows.At(i)
			lon, ok1 := e.Float("lon")
			lat, ok2 := e.Float("lat")
			if !ok1 || !ok2 {
				continue
			}
			near = areas.AppendClose(near[:0], geo.LonLat(lon, lat))
			joins++
			close = near
		}
		// Ascending, so the areas below limit are a prefix.
		n := 0
		for n < len(close) && close[n] < limit {
			n++
		}
		if n == 0 {
			continue
		}
		t, key := rows.TimeAt(i), rows.KeyAt(i)
		if skipNoisy && noisy[rtec.KV{Key: key, Value: rtec.TrueValue}].Contains(t) {
			continue
		}
		congested, _ := congestedCol.Bool(i)
		for _, a := range close[:n] {
			fn(t, key, congested, a)
		}
	}
	ctx.CountJoins(joins)
}
