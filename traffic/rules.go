package traffic

import (
	"fmt"
	"sort"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/interval"
	"github.com/insight-dublin/insight/rtec"
)

// NoisyPolicy selects which formalisation of the noisy(Bus) fluent the
// definition set uses.
type NoisyPolicy int

const (
	// CrowdValidated is rule-set (4): a bus becomes unreliable only
	// when it disagrees with the SCATS sensors AND the crowdsourced
	// information confirms the sensors.
	CrowdValidated NoisyPolicy = iota
	// Pessimistic is rule-set (5): a bus becomes unreliable on any
	// disagreement — "in the absence of information to the contrary,
	// the SCATS sensors are considered more trustworthy than buses" —
	// and is rehabilitated when the crowd proves it correct or when
	// it agrees with some SCATS intersection.
	Pessimistic
)

// Area is a non-SCATS location of interest for busCongestion: the
// paper defines busCongestion(Lon, Lat) for arbitrary coordinates,
// which "is very useful as there are numerous areas in the city that
// do not have SCATS sensors".
type Area struct {
	ID  string
	Pos geo.Point
}

// Config parameterizes the Dublin CE definition set.
type Config struct {
	// Registry holds the SCATS intersections. Required.
	Registry *Registry

	// ExtraAreas are additional areas of interest monitored by
	// busCongestion beyond the SCATS intersections.
	ExtraAreas []Area

	// DensityThreshold is the upper_Density_threshold of rule-set
	// (2): a sensor reading with density at or above it (and flow at
	// or below FlowThreshold) initiates scatsCongestion. Density is
	// an occupancy fraction in [0, 1]. Default 0.35.
	DensityThreshold float64
	// FlowThreshold is the lower_Flow_threshold of rule-set (2), in
	// vehicles/hour. Default 600.
	FlowThreshold float64
	// MinCongestedSensors is the n of the intersection-congestion
	// definition: an intersection is congested while at least n of
	// its sensors are congested. Intersections with fewer than n
	// sensors use all of them. Default 2.
	MinCongestedSensors int
	// StructuredIntersections switches scatsIntCongestion to the
	// structured definition of Section 4.3: sensor congestion →
	// approach congestion (any sensor of the approach) → intersection
	// congestion (at least MinCongestedApproaches approaches). It also
	// defines the scatsApproachCongestion fluent, keyed
	// "intersection/approach".
	StructuredIntersections bool
	// MinCongestedApproaches is the approach threshold of the
	// structured definition, capped by the approach count. Default 2.
	MinCongestedApproaches int

	// DelayIncreaseSeconds is the d of the delayIncrease CE: the
	// minimum delay growth between two SDEs. Default 60.
	DelayIncreaseSeconds int64
	// DelayIncreaseWindow is the t of the delayIncrease CE: the two
	// SDEs must be less than t seconds apart. Default 90.
	DelayIncreaseWindow rtec.Time

	// CrowdWindow is the threshold of rule-sets (4) and (5): the
	// crowdsourced information is used to evaluate a bus only if it
	// arrives within this period after the disagreement. Default 600.
	CrowdWindow rtec.Time

	// TrendEpsilon is the relative change between consecutive sensor
	// readings above which a flow/density trend counts as rising or
	// falling. Default 0.10.
	TrendEpsilon float64
	// PreCongestionDensity is the density above which a sensor with
	// rising density counts as congestion in-the-make (while not yet
	// congested). Default 0.20.
	PreCongestionDensity float64
	// RushHours are the daily periods (in hours, half-open) during
	// which intersection congestion is EXPECTED; congestion outside
	// them is recognised as unusualCongestion — the "unusual events
	// throughout the network" the INSIGHT project targets. Default
	// {{7, 10}, {16, 19}}.
	RushHours [][2]float64

	// NoisyPolicy selects rule-set (4) or (5). Default CrowdValidated.
	NoisyPolicy NoisyPolicy
	// Adaptive enables rule-set (3′): busCongestion discards reports
	// from buses for which noisy currently holds.
	Adaptive bool
}

func (c Config) withDefaults() Config {
	if c.DensityThreshold == 0 {
		c.DensityThreshold = 0.35
	}
	if c.FlowThreshold == 0 {
		c.FlowThreshold = 600
	}
	if c.MinCongestedSensors == 0 {
		c.MinCongestedSensors = 2
	}
	if c.MinCongestedApproaches == 0 {
		c.MinCongestedApproaches = 2
	}
	if c.DelayIncreaseSeconds == 0 {
		c.DelayIncreaseSeconds = 60
	}
	if c.DelayIncreaseWindow == 0 {
		c.DelayIncreaseWindow = 90
	}
	if c.CrowdWindow == 0 {
		c.CrowdWindow = 600
	}
	if c.TrendEpsilon == 0 {
		c.TrendEpsilon = 0.10
	}
	if c.PreCongestionDensity == 0 {
		c.PreCongestionDensity = 0.20
	}
	if c.RushHours == nil {
		c.RushHours = [][2]float64{{7, 10}, {16, 19}}
	}
	return c
}

// rushIntervals returns the absolute-time rush periods overlapping the
// span (which may cross midnight boundaries).
func rushIntervals(rush [][2]float64, span interval.Span) interval.List {
	const day = rtec.Time(24 * 3600)
	var out []interval.Span
	firstDay := (span.Start / day) * day
	if span.Start < 0 && span.Start%day != 0 {
		firstDay -= day
	}
	for d := firstDay; d < span.End; d += day {
		for _, r := range rush {
			out = append(out, interval.Span{
				Start: d + rtec.Time(r[0]*3600),
				End:   d + rtec.Time(r[1]*3600),
			})
		}
	}
	return interval.Normalize(out)
}

// Build compiles the Dublin CE definition set for the configuration.
func Build(cfg Config) (*rtec.Definitions, error) {
	return BuildWith(cfg, nil)
}

// BuildWith compiles the Dublin CE definition set and lets the caller
// register additional definitions on the same builder before
// compilation — e.g. custom complex events layered over the library
// fluents. The extension hook runs after every library definition has
// been added.
func BuildWith(cfg Config, extend func(*rtec.Builder)) (*rtec.Definitions, error) {
	return buildRules(cfg, nil, extend)
}

// buildRules is the shared builder behind Build/BuildWith (plan nil:
// the single-engine rule set, unchanged) and BuildShard (plan set: the
// shard-local variant — see shard.go for the decomposition contract).
// With a plan, three things change and nothing else:
//
//   - per-sensor fluents (flowTrend, densityTrend, congestionInTheMake)
//     are computed only for sensors the plan owns — every shard sees
//     all replicated traffic readings, but each sensor's fluent
//     instances must live in exactly one shard;
//   - busCongestion, the same rule, is declared partial: an area
//     aggregates buses owned by different shards, so a shard derives
//     only its part of the transition points and the tier folds them;
//   - sourceDisagreement is omitted: it reads busCongestion, which only
//     exists after that fold; the tier computes it from the folded
//     busCongestion and the (shard-identical) scatsIntCongestion.
func buildRules(cfg Config, plan *ShardPlan, extend func(*rtec.Builder)) (*rtec.Definitions, error) {
	cfg = cfg.withDefaults()
	if cfg.Registry == nil {
		return nil, fmt.Errorf("traffic: Config.Registry is required")
	}
	reg := cfg.Registry

	// Areas of interest for busCongestion: every SCATS intersection
	// plus the configured extra areas, in one spatial index.
	areaList := make([]Intersection, 0, len(reg.Intersections())+len(cfg.ExtraAreas))
	areaList = append(areaList, reg.Intersections()...)
	for _, a := range cfg.ExtraAreas {
		areaList = append(areaList, Intersection{ID: a.ID, Pos: a.Pos})
	}
	areas, err := NewRegistry(areaList, reg.CloseMeters())
	if err != nil {
		return nil, fmt.Errorf("traffic: building area index: %w", err)
	}

	b := rtec.NewBuilder().DeclareSDE(MoveType, TrafficType, CrowdType)

	// --- scatsCongestion: rule-set (2) --------------------------------
	// initiatedAt when D >= upper_Density_threshold and
	// F <= lower_Flow_threshold; terminatedAt when either bound is
	// crossed back.
	b.Simple(rtec.SimpleFluent{
		Name:     ScatsCongestion,
		Inputs:   []string{TrafficType},
		Locality: rtec.Pointwise(), // threshold test on the reading at T only
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			var out []rtec.Transition
			rows := ctx.Rows(TrafficType)
			for i := 0; i < rows.Len(); i++ {
				e := rows.At(i)
				d, _ := e.Float("density")
				f, _ := e.Float("flow")
				if d >= cfg.DensityThreshold && f <= cfg.FlowThreshold {
					out = append(out, rtec.InitiateAt(e.Key, e.Time))
				} else {
					out = append(out, rtec.TerminateAt(e.Key, e.Time))
				}
			}
			return out
		},
	})

	// --- scatsIntCongestion -------------------------------------------
	// Flat definition: an intersection is congested while at least n
	// of its sensors are congested (n capped by the sensor count, so
	// single-sensor intersections remain coverable).
	//
	// Structured definition (Config.StructuredIntersections): sensor
	// congestion → approach congestion (union of the approach's
	// sensors) → intersection congestion (at least m approaches).
	if cfg.StructuredIntersections {
		b.Static(rtec.StaticFluent{
			Name:   ScatsApproachCongestion,
			Inputs: []string{ScatsCongestion},
			HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
				out := make(map[rtec.KV]rtec.IntervalList)
				for _, in := range reg.Intersections() {
					for approach, sensors := range in.approaches() {
						lists := make([]interval.List, 0, len(sensors))
						for _, s := range sensors {
							if l := ctx.Intervals(ScatsCongestion, s); len(l) > 0 {
								lists = append(lists, l)
							}
						}
						if u := interval.UnionAll(lists...); len(u) > 0 {
							out[rtec.KV{Key: ApproachKey(in.ID, approach), Value: rtec.TrueValue}] = u
						}
					}
				}
				return out
			},
		})
		b.Static(rtec.StaticFluent{
			Name:   ScatsIntCongestion,
			Inputs: []string{ScatsApproachCongestion},
			HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
				out := make(map[rtec.KV]rtec.IntervalList)
				for _, in := range reg.Intersections() {
					approaches := in.approaches()
					if len(approaches) == 0 {
						continue
					}
					// Sorted approach order keeps the coverage input —
					// and with it the recognition output — run-stable.
					labels := make([]string, 0, len(approaches))
					for approach := range approaches {
						labels = append(labels, approach)
					}
					sort.Strings(labels)
					lists := make([]interval.List, 0, len(approaches))
					for _, approach := range labels {
						if l := ctx.Intervals(ScatsApproachCongestion, ApproachKey(in.ID, approach)); len(l) > 0 {
							lists = append(lists, l)
						}
					}
					m := cfg.MinCongestedApproaches
					if m > len(approaches) {
						m = len(approaches)
					}
					if cov := interval.CoverageAtLeast(m, lists); len(cov) > 0 {
						out[rtec.KV{Key: in.ID, Value: rtec.TrueValue}] = cov
					}
				}
				return out
			},
		})
	} else {
		b.Static(rtec.StaticFluent{
			Name:   ScatsIntCongestion,
			Inputs: []string{ScatsCongestion},
			HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
				out := make(map[rtec.KV]rtec.IntervalList)
				for _, in := range reg.Intersections() {
					if len(in.Sensors) == 0 {
						continue
					}
					lists := make([]interval.List, 0, len(in.Sensors))
					for _, s := range in.Sensors {
						if l := ctx.Intervals(ScatsCongestion, s); len(l) > 0 {
							lists = append(lists, l)
						}
					}
					n := cfg.MinCongestedSensors
					if n > len(in.Sensors) {
						n = len(in.Sensors)
					}
					if cov := interval.CoverageAtLeast(n, lists); len(cov) > 0 {
						out[rtec.KV{Key: in.ID, Value: rtec.TrueValue}] = cov
					}
				}
				return out
			},
		})
	}

	// --- disagree / agree ----------------------------------------------
	// disagree(Bus, LonInt, LatInt, Val) happens when a bus moves
	// close to a SCATS intersection and contradicts its congestion
	// state; agree(Bus) when it confirms it. Events are keyed by the
	// intersection (the crowdsourcing join key) and carry the bus in
	// an attribute.
	deriveMatches := func(ctx *rtec.Context, wantDisagree bool) []rtec.Event {
		var out *rtec.EventBlock
		if wantDisagree {
			out = rtec.NewEventBlock(Disagree,
				rtec.BCol{Name: "bus", Kind: rtec.ColStr}, rtec.BCol{Name: "value", Kind: rtec.ColStr},
				rtec.BCol{Name: "lon", Kind: rtec.ColFloat}, rtec.BCol{Name: "lat", Kind: rtec.ColFloat})
		} else {
			out = rtec.NewEventBlock(Agree, rtec.BCol{Name: "intersection", Kind: rtec.ColStr})
			out.Grow(ctx.Rows(MoveType).Len()) // buses mostly agree with the sensors they pass
		}
		// scatsIntCongestion by intersection index, resolved once: each
		// match then tests a list instead of hashing the fluent key.
		scats := make([]rtec.List, len(reg.intersections))
		for kv, l := range ctx.FluentInstances(ScatsIntCongestion) {
			if i, ok := reg.byID[kv.Key]; ok {
				scats[i] = l
			}
		}
		eachCloseMove(ctx, reg, false, func(e rtec.Event, busSays bool, i int32) {
			in := &reg.intersections[i]
			agrees := busSays == scats[i].Contains(e.Time)
			switch {
			case agrees && !wantDisagree:
				out.Add(e.Time, e.Key)
				out.Str(0, in.ID)
			case !agrees && wantDisagree:
				val := Negative
				if busSays {
					val = Positive
				}
				out.Add(e.Time, in.ID)
				out.Str(0, e.Key)
				out.Str(1, val)
				out.Float(2, in.Pos.Lon)
				out.Float(3, in.Pos.Lat)
			}
		})
		return out.Events()
	}
	// Both compare the move event at T against the fluent value at T.
	b.Event(rtec.EventRule{
		Name:     Disagree,
		Inputs:   []string{MoveType, ScatsIntCongestion},
		Locality: rtec.Pointwise(),
		Derive:   func(ctx *rtec.Context) []rtec.Event { return deriveMatches(ctx, true) },
	})
	b.Event(rtec.EventRule{
		Name:     Agree,
		Inputs:   []string{MoveType, ScatsIntCongestion},
		Locality: rtec.Pointwise(),
		Derive:   func(ctx *rtec.Context) []rtec.Event { return deriveMatches(ctx, false) },
	})

	// --- noisy: rule-sets (4) and (5) -----------------------------------
	// Rule-set (4) transitions at the disagreement time from crowd
	// reports up to CrowdWindow later (pure lookahead); rule-set (5)
	// also terminates at the crowd time from a disagreement up to
	// CrowdWindow earlier (lookback).
	noisyLocality := rtec.LocalWindow(0, cfg.CrowdWindow)
	if cfg.NoisyPolicy == Pessimistic {
		noisyLocality = rtec.LocalWindow(cfg.CrowdWindow, cfg.CrowdWindow)
	}
	b.Simple(rtec.SimpleFluent{
		Name:     Noisy,
		Inputs:   []string{Disagree, Agree, CrowdType},
		Locality: noisyLocality,
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			agree, disagree := ctx.Events(Agree), ctx.Events(Disagree)
			out := make([]rtec.Transition, 0, len(agree)+len(disagree))
			// Source agreement always rehabilitates.
			for _, e := range agree {
				out = append(out, rtec.TerminateAt(e.Key, e.Time))
			}
			for _, d := range disagree {
				bus, _ := d.Str("bus")
				busVal, _ := d.Str("value")
				crowd := ctx.RowsForKey(CrowdType, d.Key)
				switch cfg.NoisyPolicy {
				case Pessimistic:
					// Rule-set (5): any disagreement initiates noisy.
					out = append(out, rtec.InitiateAt(bus, d.Time))
					for i := 0; i < crowd.Len(); i++ {
						c := crowd.At(i)
						crowdVal, _ := c.Str("value")
						if dt := c.Time - d.Time; dt > 0 && dt < cfg.CrowdWindow && crowdVal == busVal {
							// The crowd proves the bus correct:
							// terminate at T′ (the crowd time).
							out = append(out, rtec.TerminateAt(bus, c.Time))
						}
					}
				default: // CrowdValidated, rule-set (4)
					for i := 0; i < crowd.Len(); i++ {
						c := crowd.At(i)
						crowdVal, _ := c.Str("value")
						dt := c.Time - d.Time
						if dt <= 0 || dt >= cfg.CrowdWindow {
							continue
						}
						if crowdVal != busVal {
							out = append(out, rtec.InitiateAt(bus, d.Time))
						} else {
							out = append(out, rtec.TerminateAt(bus, d.Time))
						}
					}
				}
			}
			return out
		},
	})

	// --- busCongestion: rule-set (3), or (3′) when Adaptive ------------
	busInputs := []string{MoveType}
	if cfg.Adaptive {
		busInputs = append(busInputs, Noisy)
	}
	// Sharded, the rule is partial: a shard sees only its own buses' moves,
	// so it derives its part of each area's transition points and the tier
	// folds the parts (a fluent's intervals depend only on the set of its
	// points, so concatenating the shards' lists is exact).
	b.Simple(rtec.SimpleFluent{
		Name:     BusCongestion,
		Inputs:   busInputs,
		Locality: rtec.Pointwise(), // move event at T (and, if Adaptive, noisy at T)
		Partial:  plan != nil,
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			// A move is mostly close to one area: one point per move.
			out := make([]rtec.Transition, 0, ctx.Rows(MoveType).Len())
			// Adaptive is rule-set (3′): discard unreliable buses.
			eachCloseMove(ctx, areas, cfg.Adaptive, func(e rtec.Event, congested bool, a int32) {
				if congested {
					out = append(out, rtec.InitiateAt(areas.intersections[a].ID, e.Time))
				} else {
					out = append(out, rtec.TerminateAt(areas.intersections[a].ID, e.Time))
				}
			})
			return out
		},
	})

	// --- sourceDisagreement ---------------------------------------------
	// holdsFor(sourceDisagreement(Int)=true, I) ←
	//   relative_complement_all(busCongestion(Int), [scatsIntCongestion(Int)]).
	// Computed only for the locations of SCATS intersections. Sharded
	// builds omit it: busCongestion only exists once the tier has folded
	// the shards' parts, so the tier computes the relative complement
	// itself (the pointwise identity makes that exact — see DESIGN.md,
	// "Sharded recognition tier").
	if plan == nil {
		b.Static(rtec.StaticFluent{
			Name:   SourceDisagreement,
			Inputs: []string{BusCongestion, ScatsIntCongestion},
			HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
				out := make(map[rtec.KV]rtec.IntervalList)
				for _, in := range reg.Intersections() {
					busI := ctx.Intervals(BusCongestion, in.ID)
					if len(busI) == 0 {
						continue
					}
					scatsI := ctx.Intervals(ScatsIntCongestion, in.ID)
					if d := interval.RelativeComplementAll(busI, []interval.List{scatsI}); len(d) > 0 {
						out[rtec.KV{Key: in.ID, Value: rtec.TrueValue}] = d
					}
				}
				return out
			},
		})
	}

	// --- delayIncrease ----------------------------------------------------
	// Recognised when the delay of a bus grows by more than d seconds
	// across two SDEs less than t seconds apart.
	// Local with lookback t: the emitting pair lies within t of the
	// emission time, and a pair wider than t never emits, so a view
	// covering (T−t, T] determines the output at T exactly.
	b.Event(rtec.EventRule{
		Name:     DelayIncrease,
		Inputs:   []string{MoveType},
		Locality: rtec.LocalWindow(cfg.DelayIncreaseWindow, 0),
		Derive: func(ctx *rtec.Context) []rtec.Event {
			out := rtec.NewEventBlock(DelayIncrease,
				rtec.BCol{Name: "fromLon", Kind: rtec.ColFloat}, rtec.BCol{Name: "fromLat", Kind: rtec.ColFloat},
				rtec.BCol{Name: "toLon", Kind: rtec.ColFloat}, rtec.BCol{Name: "toLat", Kind: rtec.ColFloat},
				rtec.BCol{Name: "delayGrowth", Kind: rtec.ColInt})
			for _, bus := range ctx.EventKeys(MoveType) {
				evs := ctx.RowsForKey(MoveType, bus)
				for i := 1; i < evs.Len(); i++ {
					dt := evs.TimeAt(i) - evs.TimeAt(i-1)
					if dt <= 0 || dt >= cfg.DelayIncreaseWindow {
						continue
					}
					prev, cur := evs.At(i-1), evs.At(i)
					pd, _ := prev.Int("delay")
					cd, _ := cur.Int("delay")
					if cd-pd <= cfg.DelayIncreaseSeconds {
						continue
					}
					fromLon, _ := prev.Float("lon")
					fromLat, _ := prev.Float("lat")
					toLon, _ := cur.Float("lon")
					toLat, _ := cur.Float("lat")
					out.Add(cur.Time, bus)
					out.Float(0, fromLon)
					out.Float(1, fromLat)
					out.Float(2, toLon)
					out.Float(3, toLat)
					out.Int(4, cd-pd)
				}
			}
			return out.Events()
		},
	})

	// --- flow / density trends ---------------------------------------------
	// Multi-valued fluents per sensor: rising / falling / steady, from
	// the relative change between consecutive readings.
	//
	// Window sizing: a trend derived from the reading pair (r1, r2)
	// holds from r2+1 onward, so CEs that test the trend AT a reading
	// time (e.g. congestionInTheMake) only fire when the working
	// memory covers at least three readings of the sensor — WM must
	// exceed twice the SCATS emission period (2 x 6 min in Dublin).
	// This is the kind of WM tuning the paper leaves to the end user.
	// No Locality: consecutive readings of a sensor may be arbitrarily
	// far apart, so the pair emitting at T has unbounded lookback.
	trend := func(name, attr string) rtec.SimpleFluent {
		return rtec.SimpleFluent{
			Name:   name,
			Inputs: []string{TrafficType},
			Transitions: func(ctx *rtec.Context) []rtec.Transition {
				var out []rtec.Transition
				for _, sensor := range ctx.EventKeys(TrafficType) {
					if plan != nil && !plan.OwnsSensor(sensor) {
						continue // sharded: the owner shard computes this sensor's trend
					}
					evs := ctx.RowsForKey(TrafficType, sensor)
					for i := 1; i < evs.Len(); i++ {
						prev, _ := evs.At(i - 1).Float(attr)
						cur, _ := evs.At(i).Float(attr)
						value := TrendSteady
						switch {
						case prev == 0 && cur > 0:
							value = TrendRising
						case prev == 0:
							value = TrendSteady
						case (cur-prev)/prev > cfg.TrendEpsilon:
							value = TrendRising
						case (cur-prev)/prev < -cfg.TrendEpsilon:
							value = TrendFalling
						}
						out = append(out, rtec.Transition{
							Kind: rtec.Initiate, Key: sensor, Value: value, Time: evs.TimeAt(i),
						})
					}
				}
				return out
			},
		}
	}
	b.Simple(trend(FlowTrend, "flow"))
	b.Simple(trend(DensityTrend, "density"))

	// --- unusualCongestion ---------------------------------------------
	// Intersection congestion outside the expected rush periods: the
	// "unusual events throughout the network" INSIGHT's traffic
	// managers want to detect with high certainty. Computed with the
	// interval algebra: scatsIntCongestion minus the rush windows.
	b.Static(rtec.StaticFluent{
		Name:   UnusualCongestion,
		Inputs: []string{ScatsIntCongestion},
		HoldsFor: func(ctx *rtec.Context) map[rtec.KV]rtec.IntervalList {
			rush := rushIntervals(cfg.RushHours, ctx.Window())
			out := make(map[rtec.KV]rtec.IntervalList)
			for kv, congested := range ctx.FluentInstances(ScatsIntCongestion) {
				if u := interval.RelativeComplement(congested, rush); len(u) > 0 {
					out[kv] = u
				}
			}
			return out
		},
	})

	// --- congestionInTheMake ---------------------------------------------
	// The proactive CE of the paper's motivation: "an urban monitoring
	// system that identifies traffic congestions (in-the-make) and
	// (proactively) changes traffic light priorities and speed limits"
	// (Section 1). A sensor is heading into congestion while its
	// density is already elevated and still rising, but the congestion
	// thresholds have not been crossed yet.
	// Pointwise in its own reads, but densityTrend is non-local, so the
	// engine still recomputes this fluent in full every query.
	b.Simple(rtec.SimpleFluent{
		Name:     CongestionInMake,
		Inputs:   []string{TrafficType, DensityTrend},
		Locality: rtec.Pointwise(),
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			var out []rtec.Transition
			rows := ctx.Rows(TrafficType)
			for i := 0; i < rows.Len(); i++ {
				e := rows.At(i)
				if plan != nil && !plan.OwnsSensor(e.Key) {
					continue // sharded: the owner shard computes this sensor's warning
				}
				d, _ := e.Float("density")
				f, _ := e.Float("flow")
				congested := d >= cfg.DensityThreshold && f <= cfg.FlowThreshold
				rising := ctx.HoldsAtValue(DensityTrend, e.Key, TrendRising, e.Time)
				if !congested && rising && d >= cfg.PreCongestionDensity {
					out = append(out, rtec.InitiateAt(e.Key, e.Time))
				} else {
					out = append(out, rtec.TerminateAt(e.Key, e.Time))
				}
			}
			return out
		},
	})

	// --- noisyScats (extension) ---------------------------------------------
	// Crowd-based SCATS reliability: "Given the crowdsourced
	// information, we can also evaluate the reliability of SCATS
	// sensors" (end of Section 4.3). An intersection's sensor set is
	// considered noisy while the crowd contradicts it.
	b.Simple(rtec.SimpleFluent{
		Name:     NoisyScats,
		Inputs:   []string{CrowdType, ScatsIntCongestion},
		Locality: rtec.Pointwise(), // crowd report at T vs the fluent value at T
		Transitions: func(ctx *rtec.Context) []rtec.Transition {
			var out []rtec.Transition
			rows := ctx.Rows(CrowdType)
			for i := 0; i < rows.Len(); i++ {
				c := rows.At(i)
				val, _ := c.Str("value")
				crowdSaysCongestion := val == Positive
				scatsSays := ctx.HoldsAt(ScatsIntCongestion, c.Key, c.Time)
				if crowdSaysCongestion != scatsSays {
					out = append(out, rtec.InitiateAt(c.Key, c.Time))
				} else {
					out = append(out, rtec.TerminateAt(c.Key, c.Time))
				}
			}
			return out
		},
	})

	if extend != nil {
		extend(b)
	}
	return b.Compile()
}

// Trend fluent values.
const (
	TrendRising  = "rising"
	TrendFalling = "falling"
	TrendSteady  = "steady"
)
