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
	"strconv"
	"strings"
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
	// Partitions is the number of CE recognition partitions, each SDE
	// routed by its position. Default geo.NumRegions, the paper's four
	// city areas: they do not answer as one engine does (DESIGN.md,
	// "Sharded recognition tier") and stay the default only for the
	// frozen benchmark harness; set Shards for the product's answers.
	// Partitions: 1 is one engine, the equivalence tests' reference.
	Partitions int
	// Shards switches recognition to the N-way sharded tier, which
	// answers as one engine does at every shard count: bus keys and
	// sensors are assigned to Shards shard engines by a fixed function
	// of (key, Shards), and the tier folds the shards' busCongestion
	// transition points into the cross-shard CE (see DESIGN.md,
	// "Sharded recognition tier"). 0 (the default) keeps the region
	// partitioning; with Shards > 0 Partitions is ignored.
	Shards int
	// Participants are the crowdsourcing volunteers; a round asks the
	// five online ones nearest the disagreeing intersection.
	// Crowdsourcing is disabled when empty.
	Participants []SimParticipant
	// CrowdResponseTimeout bounds how long one participant's device
	// may take to produce an answer before the round gives up on it and
	// marks the worker failed. 0 waits forever — a dead worker then
	// hangs the crowdsourcing round.
	//lint:allow unusedapi a silent device must not hang a crowd round; TestRunCancelledInsideACrowdRound sets it
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
	// Store is ignored: every engine keeps its working memory in the
	// column store (DESIGN.md, "Columnar store internals").
	//
	// Deprecated: one store; accepted and ignored so existing literals
	// compile.
	//lint:allow unusedapi cmd/e2ebench's workload literal sets it; nothing reads it, by design
	Store rtec.StoreKind
	// ColumnarTransport is ignored.
	//
	// Deprecated: transport is always columnar; accepted and ignored so
	// existing literals compile.
	//lint:allow unusedapi cmd/e2ebench's workload literal sets it; nothing reads it, by design
	ColumnarTransport bool
	// UnpacedReplay is ignored.
	//
	// Deprecated: every source is paced on the shared virtual clock;
	// accepted and ignored so existing literals compile.
	//lint:allow unusedapi cmd/e2ebench's workload literal sets it; nothing reads it, by design
	UnpacedReplay bool
}

// System is the assembled INSIGHT pipeline.
type System struct {
	cfg      Config
	city     *dublin.City
	registry *traffic.Registry
	// areas is the rules' close/4 index (traffic.AreaIndex), against
	// which the input stage stamps every move batch.
	areas     *traffic.Registry
	defs      *rtec.Definitions
	engines   engineTier
	estimator *crowd.Estimator
	qeeEngine *qee.Engine
	roster    *crowd.Roster
	// online is roster.Online(), taken once in New: every panel is
	// selected from it (crowdSelection does not reorder its input).
	//state:derived the roster is registered only in New, so the view never goes stale
	online []crowd.Participant
	// panels memoizes, per intersection, whom its crowdsourcing rounds
	// ask and what: crowdSelection over online at the intersection,
	// filled the first time a round asks there.
	//state:derived the roster is registered only in New, so a panel never goes stale
	panels map[string]crowdPanel

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
	areas, err := traffic.AreaIndex(tcfg)
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
		part, err := rtec.NewPartitioned(defs, rtec.Options{WorkingMemory: cfg.WorkingMemory}, cfg.Partitions, func(b *rtec.Block) func(int) int {
			of := dublin.PartitionOfBlock(b)
			return func(i int) int { return of(i) % cfg.Partitions }
		})
		if err != nil {
			return nil, err
		}
		engines = partitionedTier{part}
	}

	s := &System{
		cfg:          cfg,
		city:         cfg.City,
		registry:     registry,
		areas:        areas,
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
		s.online = s.roster.Online()
	}
	return s, nil
}

// Definitions exposes the compiled CE definition set.
func (s *System) Definitions() *rtec.Definitions { return s.defs }

// Estimator exposes the online EM participant-reliability estimator.
func (s *System) Estimator() *crowd.Estimator { return s.estimator }

// queryTimeID encodes the query time into the crowd query ID so the
// simulated participants can consult the ground truth of the right
// moment (a real participant would simply look at the street).
func queryTimeID(inter string, t Time) string {
	var buf [64]byte
	b := append(append(buf[:0], inter...), '@')
	return string(strconv.AppendInt(b, int64(t), 10))
}

// parseQueryTime reads the query time back out of a queryTimeID; every
// simulated participant's answer calls it.
func parseQueryTime(id string) (Time, bool) {
	i := strings.LastIndexByte(id, '@')
	if i < 0 {
		return 0, false
	}
	t, err := strconv.ParseInt(id[i+1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return Time(t), true
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
