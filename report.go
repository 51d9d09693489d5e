package insight

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// Alert is one operator-facing notification.
type Alert struct {
	Time Time
	Kind string // e.g. "congestion", "delayIncrease", "sourceDisagreement"
	Key  string // intersection, area or bus
	Text string
}

// CrowdResolution records one crowdsourcing round.
type CrowdResolution struct {
	Intersection string
	QueryTime    Time
	Queried      int
	Verdict      crowd.Verdict
	// Event is the crowd SDE injected back into the CEP component.
	Event rtec.Event
}

// Report is the outcome of one query-time evaluation of the whole
// system: what the city operator sees on the dashboard.
type Report struct {
	Q      Time
	Window rtec.Span
	// CongestedIntersections lists intersections where
	// scatsIntCongestion holds at Q.
	CongestedIntersections []string
	// BusCongestionAreas lists areas where busCongestion holds at Q.
	BusCongestionAreas []string
	// Disagreements lists intersections where sourceDisagreement
	// holds at Q.
	Disagreements []string
	// CongestionWarnings lists sensors where congestionInTheMake
	// holds at Q — elevated, still-rising density that has not yet
	// crossed the congestion thresholds (the paper's proactive
	// monitoring motivation).
	CongestionWarnings []string
	// UnusualCongestion lists intersections congested outside the
	// expected rush periods at Q — likely incidents.
	UnusualCongestion []string
	// NoisyBuses lists buses where noisy holds at Q.
	NoisyBuses []string
	// Alerts aggregates the operator notifications of this step.
	Alerts []Alert
	// CrowdRounds are the crowdsourcing resolutions triggered.
	CrowdRounds []CrowdResolution
	// DegradedStreams lists the pipeline input streams that were
	// excluded from the watermark minimum when this boundary fired:
	// streams whose arrival watermark trailed the most advanced stream
	// by more than Config.WatermarkStaleness (the transport-layer
	// mirror of the paper's noisy-source self-adaptation). Empty in
	// fault-free runs.
	DegradedStreams []string
	// WatermarkLag is the gap between the most advanced stream's
	// arrival watermark and Q when this boundary fired — the boundary
	// release latency in stream time.
	WatermarkLag Time
	// Stats aggregates engine statistics across partitions.
	Stats rtec.Stats
	// FedEvents is the number of SDEs delivered this step.
	FedEvents int
	// Result is the merged cross-partition recognition result, for
	// consumers that need the raw fluent intervals and derived events
	// (e.g. accuracy scoring against ground truth). Not serialized.
	Result *rtec.Result `json:"-"`
}

// Fingerprint renders the report's recognized content as a canonical
// string: the CE sets, alerts, crowd verdicts and fed-event count, but
// none of the run-shaped diagnostics (Stats, WatermarkLag,
// DegradedStreams) and not the raw Result. Two reports for the same
// query time fingerprint equal exactly when recognition produced the
// same output — the equality the crash-equivalence gate checks between
// a crashed-and-recovered run and an uninterrupted one, across which
// engine statistics legitimately differ (a restored engine has not
// re-done the pre-checkpoint work).
func (r *Report) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "q=%d win=[%d,%d) fed=%d", int64(r.Q), int64(r.Window.Start), int64(r.Window.End), r.FedEvents)
	join := func(label string, vals []string) {
		fmt.Fprintf(&b, " %s=%s", label, strings.Join(vals, ","))
	}
	join("congested", r.CongestedIntersections)
	join("busAreas", r.BusCongestionAreas)
	join("disagree", r.Disagreements)
	join("warnings", r.CongestionWarnings)
	join("unusual", r.UnusualCongestion)
	join("noisy", r.NoisyBuses)
	for _, a := range r.Alerts {
		fmt.Fprintf(&b, " alert=%d/%s/%s/%q", int64(a.Time), a.Kind, a.Key, a.Text)
	}
	for _, cr := range r.CrowdRounds {
		fmt.Fprintf(&b, " crowd=%s/%d/%d/%s", cr.Intersection, int64(cr.QueryTime), cr.Queried, cr.Verdict.Best)
	}
	return b.String()
}

// Summary renders a one-line digest.
func (r *Report) Summary() string {
	return fmt.Sprintf("Q=%d: %d SDEs, %d congested intersections, %d bus-congestion areas, %d disagreements, %d noisy buses, %d crowd rounds, %d alerts",
		int64(r.Q), r.FedEvents, len(r.CongestedIntersections), len(r.BusCongestionAreas),
		len(r.Disagreements), len(r.NoisyBuses), len(r.CrowdRounds), len(r.Alerts))
}

// evaluate queries the engines at q, assembles the report and — with
// participants registered — runs the crowdsourcing rounds on the fresh
// disagreements, feeding each verdict back to the engines: when it
// returns, boundary q is complete.
func (s *System) evaluate(ctx context.Context, q Time, fed int) (*Report, error) {
	results, err := s.engines.Query(q)
	if err != nil {
		return nil, err
	}
	merged := rtec.MergeResults(results)

	rep := &Report{Q: q, Window: merged.Window, Stats: merged.Stats, FedEvents: fed, Result: merged}
	rep.CongestedIntersections = holdingKeys(merged, traffic.ScatsIntCongestion, q)
	rep.BusCongestionAreas = holdingKeys(merged, traffic.BusCongestion, q)
	rep.Disagreements = holdingKeys(merged, traffic.SourceDisagreement, q)
	rep.NoisyBuses = holdingKeys(merged, traffic.Noisy, q)
	rep.CongestionWarnings = holdingKeys(merged, traffic.CongestionInMake, q)
	rep.UnusualCongestion = holdingKeys(merged, traffic.UnusualCongestion, q)

	for _, in := range rep.UnusualCongestion {
		rep.Alerts = append(rep.Alerts, Alert{
			Time: q, Kind: traffic.UnusualCongestion, Key: in,
			Text: fmt.Sprintf("congestion at %s OUTSIDE rush hours — possible incident", in),
		})
	}
	for _, sensor := range rep.CongestionWarnings {
		rep.Alerts = append(rep.Alerts, Alert{
			Time: q, Kind: traffic.CongestionInMake, Key: sensor,
			Text: fmt.Sprintf("density rising at sensor %s — congestion in the make", sensor),
		})
	}
	for _, in := range rep.CongestedIntersections {
		rep.Alerts = append(rep.Alerts, Alert{
			Time: q, Kind: "congestion", Key: in,
			Text: fmt.Sprintf("SCATS intersection %s congested", in),
		})
	}
	for _, ev := range merged.Fresh {
		switch ev.Type {
		case traffic.DelayIncrease:
			growth, _ := ev.Int("delayGrowth")
			rep.Alerts = append(rep.Alerts, Alert{
				Time: ev.Time, Kind: traffic.DelayIncrease, Key: ev.Key,
				Text: fmt.Sprintf("bus %s delay grew by %d s (possible congestion in-the-make)", ev.Key, growth),
			})
		case traffic.Disagree:
			bus, _ := ev.Str("bus")
			rep.Alerts = append(rep.Alerts, Alert{
				Time: ev.Time, Kind: traffic.Disagree, Key: ev.Key,
				// Concatenated, not formatted: one per fresh disagreement.
				Text: "bus " + bus + " disagrees with SCATS at " + ev.Key,
			})
		}
	}

	if s.qeeEngine != nil {
		rounds, err := s.resolveDisagreements(ctx, q, merged)
		if err != nil {
			return nil, err
		}
		rep.CrowdRounds = rounds
	}
	return rep, nil
}

// resolveDisagreements runs one crowdsourcing round per intersection
// with a fresh disagree event: selects participants near the
// intersection, executes the MapReduce query, fuses the answers with
// online EM, feeds the verdict back as a crowd SDE, and reports it.
func (s *System) resolveDisagreements(ctx context.Context, q Time, merged *rtec.Result) ([]CrowdResolution, error) {
	seen := make(map[string]bool)
	var rounds []CrowdResolution
	for _, ev := range merged.Fresh {
		if ev.Type != traffic.Disagree || seen[ev.Key] {
			continue
		}
		// Only near-live disagreements are worth asking about: "we
		// can no longer ask questions about an event when it is over"
		// (Section 5.2).
		if q-ev.Time > s.cfg.Step {
			continue
		}
		seen[ev.Key] = true
		inter, ok := s.registry.Lookup(ev.Key)
		if !ok {
			continue
		}
		selected := s.cfg.CrowdSelection(s.roster.Online(), inter.Pos)
		if len(selected) == 0 {
			continue
		}
		// The CE component supplies the prior (Section 5.1): skew it
		// by what the disagreeing bus claimed.
		prior := []float64{0.5, 0.5}
		if v, _ := ev.Str("value"); v == traffic.Positive {
			prior = []float64{0.6, 0.4}
		} else {
			prior = []float64{0.4, 0.6}
		}
		query := qee.Query{
			ID:       queryTimeID(ev.Key, q),
			Question: fmt.Sprintf("Is there a traffic congestion at intersection %s?", ev.Key),
			Answers:  []string{traffic.Positive, traffic.Negative},
			Pos:      inter.Pos,
		}
		exec, err := s.qeeEngine.Execute(ctx, query, selected)
		if err != nil {
			return nil, err
		}
		if len(exec.Answers) == 0 {
			continue // no participant answered
		}
		verdict, err := s.estimator.Process(exec.Task(prior))
		if err != nil {
			return nil, err
		}
		// happensAt(crowd(LonInt, LatInt, Val), T): inject the verdict
		// back. It is stamped one second after Q so it arrives for the
		// NEXT window, like a real asynchronous crowd response.
		crowdEv := traffic.CrowdVerdict(q+1, ev.Key, verdict.Best)
		crowdEv.Attrs["lon"] = inter.Pos.Lon
		crowdEv.Attrs["lat"] = inter.Pos.Lat
		if err := s.engines.Input(crowdEv); err != nil {
			return nil, err
		}
		// The traffic modelling component can also use the verdict to
		// resolve sparsity (Section 2): remember it as a congestion
		// pseudo-reading for FlowMap.
		if v, ok := s.interVertex[ev.Key]; ok {
			s.lastCrowd[ev.Key] = crowdReading{
				vertex:    v,
				congested: verdict.Best == traffic.Positive,
				t:         q,
			}
		}
		rounds = append(rounds, CrowdResolution{
			Intersection: ev.Key,
			QueryTime:    q,
			Queried:      len(selected),
			Verdict:      verdict,
			Event:        crowdEv,
		})
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i].Intersection < rounds[j].Intersection })
	return rounds, nil
}

// Run evaluates the system at the regular query times from+Step,
// from+2·Step, ..., until over the generator's SDEs of [from, until),
// calling fn with each report. It runs the Streams pipeline
// (BuildPipeline); fn runs on the monitoring goroutine once boundary q
// is complete and before any row is admitted for q+Step, so FlowMap,
// Estimator and Rebalance called from it see the system as of q. An
// error from fn, or ctx's when cancelled, ends the run and comes back
// wrapped.
func (s *System) Run(ctx context.Context, from, until Time, fn func(*Report) error) error {
	return s.run(ctx, from, until, s.collect(from, until), fn)
}

// RunReplay is Run over a pre-recorded stream (e.g. read back from the
// CSV exports of package dublin), admitted by its arrival times. The
// recording is converted to column batches once, here; any order is
// accepted, and an SDE the columnar schema cannot carry (unknown type,
// missing or non-scalar attribute) is an error.
func (s *System) RunReplay(ctx context.Context, sdes []dublin.SDE, from, until Time, fn func(*Report) error) error {
	batched, err := dublin.BatchSDEs(sdes, transportBatchRows, s.cfg.Step/2)
	if err != nil {
		return err
	}
	return s.run(ctx, from, until, batched, fn)
}

func (s *System) run(ctx context.Context, from, until Time, batched []dublin.BatchedStream, fn func(*Report) error) error {
	pipe, err := s.buildPipeline(from, until, batched, ChaosConfig{}, nil, fn)
	if err != nil {
		return err
	}
	_, err = pipe.Run(ctx)
	return err
}

func holdingKeys(r *rtec.Result, fluent string, q Time) []string {
	// Iterate the fluent instances in sorted key order rather than map
	// order, so the report — and everything derived from it (alerts,
	// crowd rounds, dashboard output) — is byte-stable across runs.
	insts := r.Fluents[fluent]
	kvs := make([]rtec.KV, 0, len(insts))
	for kv := range insts {
		kvs = append(kvs, kv)
	}
	sort.Slice(kvs, func(i, j int) bool {
		if kvs[i].Key != kvs[j].Key {
			return kvs[i].Key < kvs[j].Key
		}
		return kvs[i].Value < kvs[j].Value
	})
	var out []string
	for _, kv := range kvs {
		if kv.Value == rtec.TrueValue && insts[kv].Contains(q) {
			out = append(out, kv.Key)
		}
	}
	return out
}

// String renders a human-readable report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, r.Summary())
	for _, a := range r.Alerts {
		fmt.Fprintf(&b, "  [%s] t=%d %s\n", a.Kind, int64(a.Time), a.Text)
	}
	for _, c := range r.CrowdRounds {
		fmt.Fprintf(&b, "  [crowd] %s: %q (confidence %.2f, %d participants)\n",
			c.Intersection, c.Verdict.Best, c.Verdict.Confidence, c.Queried)
	}
	return b.String()
}
