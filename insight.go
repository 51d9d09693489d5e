// Package insight wires the components of the INSIGHT Dublin traffic
// management system (Artikis et al., EDBT 2014, Figure 1) into one
// runnable System:
//
//   - the synthetic Dublin substrate (package dublin) plays the role
//     of the bus and SCATS sensor feeds behind their mediators;
//   - complex event processing (packages rtec and traffic) recognises
//     congestion, trends, source disagreement and source reliability,
//     distributed over the four city regions;
//   - crowdsourcing (packages crowd and crowd/qee) resolves source
//     disagreements by querying simulated participants near the
//     disputed intersection and fusing their answers with online EM;
//     verdicts are fed back into the CEP engine as crowd events,
//     closing the self-adaptation loop of rule-sets (4)/(5) + (3′);
//   - traffic modelling (package gp) produces city-wide flow estimates
//     from the sparse sensor readings on demand.
//
// Each query time yields a Report — the operator-facing view with the
// recognised situations, alerts and crowdsourcing outcomes.
package insight

import (
	"fmt"
	"time"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Time re-exports the discrete time point type used across the system.
type Time = rtec.Time

// SimParticipant describes one simulated crowdsourcing volunteer.
type SimParticipant struct {
	ID        string
	Pos       geo.Point
	ErrorProb float64
	Network   qee.Network
}

// Config assembles a System.
type Config struct {
	// City is the synthetic Dublin substrate. Required.
	City *dublin.City
	// Traffic overrides CE thresholds; Registry is filled in from the
	// city automatically.
	Traffic traffic.Config
	// WorkingMemory and Step configure RTEC windowing. Defaults:
	// WM 1800 s, Step 900 s (window twice the step, absorbing
	// mediator delays per Figure 2).
	WorkingMemory, Step Time
	// Partitions is the number of CE recognition partitions.
	// Default geo.NumRegions (the paper's four city areas).
	Partitions int
	// Shards switches recognition to the N-way sharded tier: bus keys
	// and sensors are rendezvous-assigned to Shards shard engines, the
	// tier folds the shards' busCongestion transition points into the
	// cross-shard CE, and skew-driven rebalancing can migrate hot keys
	// between shards (see DESIGN.md, "Sharded recognition tier"). 0 (the
	// default) keeps the legacy fixed partitioning; with Shards > 0
	// Partitions is ignored.
	Shards int
	// RebalanceFactor enables automatic skew-driven rebalancing on the
	// sharded tier: when one shard has routed more than RebalanceFactor
	// × the average number of bus moves since the last check, its
	// hottest keys migrate to the least loaded shard. <= 0 (default)
	// disables automatic rebalancing; System.Rebalance still works.
	RebalanceFactor float64
	// RebalanceMinMoves is the minimum number of routed moves before a
	// skew check concludes. Default 64 × Shards.
	RebalanceMinMoves int
	// Participants are the crowdsourcing volunteers. Crowdsourcing is
	// disabled when empty.
	Participants []SimParticipant
	// CrowdSelection picks whom to query; default
	// crowd.SelectNearest(5, 0).
	CrowdSelection crowd.Selection
	// CrowdResponseTimeout bounds how long one participant's device
	// may take to produce an answer before the round gives up on it and
	// marks the worker failed. 0 waits forever — a dead worker then
	// hangs the crowdsourcing round.
	CrowdResponseTimeout time.Duration
	// WatermarkStaleness is the pipeline's per-stream liveness bound:
	// an input stream whose arrival watermark trails the most advanced
	// stream by more than this is declared degraded and excluded from
	// the query-boundary watermark minimum, so a silent source cannot
	// freeze recognition (the degradation is flagged on each Report).
	// 0 disables: a silent stream then withholds query boundaries
	// until end of stream. One Step is a good starting bound.
	WatermarkStaleness Time
	// Seed drives the crowdsourcing simulation.
	Seed int64
	// Store picks the reference working-memory representation by name:
	// the zero value rtec.StoreColumn keeps per-type column blocks with
	// row-id key indexes, rtec.StoreRow keeps one Event per stored SDE —
	// identical recognition output at several times the resident bytes,
	// kept as the reference the equivalence tests compare against (see
	// DESIGN.md, "Columnar store internals").
	Store rtec.StoreKind
	// ColumnarTransport is ignored.
	//
	// Deprecated: transport is always columnar; accepted and ignored so
	// existing literals compile.
	ColumnarTransport bool
	// UnpacedReplay lets the replay sources run freely instead of
	// aligning them on the shared virtual clock. Benchmark mode: the
	// pipeline then measures processing cost, not replay pacing.
	// Recognition output is unaffected when WatermarkStaleness is 0
	// (boundary admission filters by arrival time, so the interleaving
	// never shows); with a staleness bound, free-running sources can
	// spuriously degrade slower streams — keep pacing in that case.
	UnpacedReplay bool
}

// System is the assembled INSIGHT pipeline.
type System struct {
	cfg       Config
	city      *dublin.City
	registry  *traffic.Registry
	defs      *rtec.Definitions
	engines   engineTier
	estimator *crowd.Estimator
	qeeEngine *qee.Engine
	roster    *crowd.Roster

	lastTraffic  map[string]trafficReading // latest reading per sensor
	lastCrowd    map[string]crowdReading   // latest verdict per intersection
	sensorVertex map[string]int            // sensor ID -> graph vertex
	interVertex  map[string]int            // intersection ID -> graph vertex
}

type crowdReading struct {
	vertex    int
	congested bool
	t         Time
}

type trafficReading struct {
	vertex int
	flow   float64
	t      Time
}

// closeMeters is the close predicate's threshold in metres: a bus
// within it of a SCATS intersection is close to that intersection.
const closeMeters = 150

// New assembles a System.
func New(cfg Config) (*System, error) {
	if cfg.City == nil {
		return nil, fmt.Errorf("insight: Config.City is required")
	}
	if cfg.WorkingMemory == 0 {
		cfg.WorkingMemory = 1800
	}
	if cfg.Step == 0 {
		cfg.Step = 900
	}
	if cfg.Partitions == 0 {
		cfg.Partitions = int(geo.NumRegions)
	}
	if cfg.CrowdSelection == nil {
		cfg.CrowdSelection = crowd.SelectNearest(5, 0)
	}

	registry, err := cfg.City.Registry(closeMeters)
	if err != nil {
		return nil, err
	}
	tcfg := cfg.Traffic
	tcfg.Registry = registry
	if tcfg.CrowdWindow == 0 {
		// Crowd verdicts are produced at query times, up to a step
		// after the disagreement they answer; leave headroom so they
		// land inside the rule-sets' validity window.
		tcfg.CrowdWindow = cfg.Step + 600
	}
	defs, err := traffic.Build(tcfg)
	if err != nil {
		return nil, err
	}
	var engines engineTier
	if cfg.Shards > 0 {
		tier, err := newShardTier(cfg, tcfg, registry)
		if err != nil {
			return nil, err
		}
		engines = tier
	} else {
		part, err := rtec.NewPartitioned(defs, rtec.Options{
			WorkingMemory: cfg.WorkingMemory,
			Step:          cfg.Step,
			Store:         cfg.Store,
		}, cfg.Partitions, func(e rtec.Event) int {
			return dublin.PartitionOf(e) % cfg.Partitions
		})
		if err != nil {
			return nil, err
		}
		part.SetBlockAssign(func(b *rtec.Block) func(int) int {
			of := dublin.PartitionOfBlock(b)
			return func(i int) int { return of(i) % cfg.Partitions }
		})
		engines = part
	}

	s := &System{
		cfg:          cfg,
		city:         cfg.City,
		registry:     registry,
		defs:         defs,
		engines:      engines,
		estimator:    crowd.NewEstimator(crowd.EstimatorOptions{}),
		roster:       crowd.NewRoster(),
		lastTraffic:  make(map[string]trafficReading),
		lastCrowd:    make(map[string]crowdReading),
		sensorVertex: make(map[string]int, len(cfg.City.Sensors())),
		interVertex:  make(map[string]int),
	}
	for _, sensor := range cfg.City.Sensors() {
		s.sensorVertex[sensor.ID] = sensor.Vertex
		s.interVertex[sensor.Intersection] = sensor.Vertex
	}

	if len(cfg.Participants) > 0 {
		s.qeeEngine = qee.NewEngine(qee.Options{
			Seed:            cfg.Seed,
			ResponseTimeout: cfg.CrowdResponseTimeout,
		})
		for i, p := range cfg.Participants {
			if err := s.roster.Register(crowd.Participant{
				ID: p.ID, Pos: p.Pos, Online: true,
				ComputeTime: 2 * time.Second,
			}); err != nil {
				return nil, err
			}
			sim := crowd.NewSimulatedParticipant(p.ID, p.ErrorProb, cfg.Seed+int64(i)*97+13)
			city := cfg.City
			if err := s.qeeEngine.Connect(qee.Device{
				Participant: crowd.Participant{ID: p.ID, Pos: p.Pos},
				Network:     p.Network,
				Respond: func(q qee.Query) (string, time.Duration) {
					truth := traffic.Negative
					// The participant looks out the window: ground truth
					// at the disputed location, right now.
					if t, ok := parseQueryTime(q.ID); ok && city.IsCongested(q.Pos, t) {
						truth = traffic.Positive
					}
					return sim.Answer(q.Answers, truth).Label, 2 * time.Second
				},
			}); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// Registry exposes the SCATS intersection registry.
func (s *System) Registry() *traffic.Registry { return s.registry }

// Definitions exposes the compiled CE definition set.
func (s *System) Definitions() *rtec.Definitions { return s.defs }

// Estimator exposes the online EM participant-reliability estimator.
func (s *System) Estimator() *crowd.Estimator { return s.estimator }

// queryTimeID encodes the query time into the crowd query ID so the
// simulated participants can consult the ground truth of the right
// moment (a real participant would simply look at the street).
func queryTimeID(inter string, t Time) string {
	return fmt.Sprintf("%s@%d", inter, int64(t))
}

func parseQueryTime(id string) (Time, bool) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '@' {
			var t int64
			if _, err := fmt.Sscanf(id[i+1:], "%d", &t); err != nil {
				return 0, false
			}
			return Time(t), true
		}
	}
	return 0, false
}

// noteTraffic tracks the latest reading per sensor for the traffic
// model. Rows are admitted in arrival order, so "latest" is decided by
// event time: a delayed reading does not replace a newer one. A row
// without a flow attribute is not a reading.
func (s *System) noteTraffic(e rtec.Event) {
	v, ok := s.sensorVertex[e.Key]
	if !ok {
		return
	}
	flow, ok := e.Float("flow")
	if !ok {
		return
	}
	if cur, seen := s.lastTraffic[e.Key]; seen && e.Time < cur.t {
		return
	}
	s.lastTraffic[e.Key] = trafficReading{vertex: v, flow: flow, t: e.Time}
}
