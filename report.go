package insight

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"time"

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
}

// crowdVerdict is one verdict fed back to recognition: the
// happensAt(crowd(LonInt, LatInt, Val), q+1) SDE of the round q asked,
// the position the registry's.
type crowdVerdict struct {
	inter, label string
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
	// Span is the boundary's cost record: per stage wall time and heap
	// bytes, and the work counts.
	Span Span
	// FedEvents is the number of SDEs delivered this step.
	FedEvents int
	// Result is the merged cross-partition recognition result, for
	// consumers that need the raw fluent intervals and derived events
	// (e.g. accuracy scoring against ground truth). Not serialized.
	Result *rtec.Result `json:"-"`
}

// Fingerprint renders the report's recognized content as a canonical
// string: the CE sets, alerts, crowd verdicts and fed-event count, but
// none of the run-shaped diagnostics (Stats, Span, WatermarkLag,
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
// disagreements, feeding their verdicts back to the engines: when it
// returns, boundary q is complete. It also returns the verdicts, in the
// order they were filed. It marks its stages on rec.
func (s *System) evaluate(ctx context.Context, q Time, fed int, rec *spanRecorder) (*Report, []crowdVerdict, error) {
	results, err := s.engines.Query(q, rec)
	if err != nil {
		return nil, nil, err
	}
	merged := rtec.MergeResults(results)
	rec.mark(&rec.span.Merge)
	rec.span.RowsAdmitted = fed
	rec.span.RowsInserted = merged.Stats.InsertedRows
	rec.span.Joins = merged.Stats.Joins

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

	rec.mark(&rec.span.Assemble)

	var verdicts []crowdVerdict
	if s.qeeEngine != nil {
		rep.CrowdRounds, verdicts, err = s.resolveDisagreements(ctx, q, merged, rec)
		if err != nil {
			return nil, nil, err
		}
		rec.mark(&rec.span.Crowd)
	}
	return rep, verdicts, nil
}

// crowdSelection picks whom a crowdsourcing round asks: the five online
// participants nearest the disagreeing intersection.
var crowdSelection = crowd.SelectNearest(5, 0)

// crowdPanel is what every crowdsourcing round about one intersection
// shares: the participants it asks and the question.
type crowdPanel struct {
	selected []crowd.Participant
	question string
}

// panel returns the intersection's crowdPanel, selecting it the first
// time a round asks there.
func (s *System) panel(inter traffic.Intersection) crowdPanel {
	if p, ok := s.panels[inter.ID]; ok {
		return p
	}
	if s.panels == nil {
		s.panels = make(map[string]crowdPanel)
	}
	p := crowdPanel{
		selected: crowdSelection(s.roster.Online(), inter.Pos),
		question: "Is there a traffic congestion at intersection " + inter.ID + "?",
	}
	s.panels[inter.ID] = p
	return p
}

// The priors the CE component supplies (Section 5.1), skewed by what
// the disagreeing bus claimed. The estimator only reads them.
var (
	priorBusPositive = []float64{0.6, 0.4}
	priorBusNegative = []float64{0.4, 0.6}
)

// resolveDisagreements runs one crowdsourcing round per intersection
// with a fresh disagree event: asks the intersection's panel — the
// participants near it — the MapReduce query, fuses the answers with
// online EM and reports the verdict. The verdicts are fed back as one
// block of crowd SDEs and returned in that order. Each round asked is
// counted and timed on rec. Rounds run one after another in Fresh
// order: a simulated participant draws its answer from a generator of
// its own, so the order it is asked in is part of what it answers.
func (s *System) resolveDisagreements(ctx context.Context, q Time, merged *rtec.Result, rec *spanRecorder) ([]CrowdResolution, []crowdVerdict, error) {
	n := 0 // the fresh disagreements bound the rounds
	for i := range merged.Fresh {
		if merged.Fresh[i].Type == traffic.Disagree {
			n++
		}
	}
	if n == 0 {
		return nil, nil, nil
	}
	seen := make(map[string]bool, n)
	rounds := make([]CrowdResolution, 0, n)
	verdicts := make([]crowdVerdict, 0, n)
	for i := range merged.Fresh {
		ev := &merged.Fresh[i]
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
		panel := s.panel(inter)
		if len(panel.selected) == 0 {
			continue
		}
		prior := priorBusNegative
		if v, _ := ev.Str("value"); v == traffic.Positive {
			prior = priorBusPositive
		}
		begin := time.Now() //lint:allow nodeterminism wall-clock feeds only Report.Span, never the recognition result
		query := qee.Query{ //lint:allow hotalloc a value handed to Execute; its ID and Answers (which the round's verdict keeps) are the round's own
			ID:       queryTimeID(ev.Key, q),
			Question: panel.question,
			Answers:  []string{traffic.Positive, traffic.Negative},
			Pos:      inter.Pos,
		}
		exec, err := s.qeeEngine.Execute(ctx, query, panel.selected)
		if err != nil {
			return nil, nil, err
		}
		rec.span.CrowdRounds++
		rec.span.CrowdMax = max(rec.span.CrowdMax, time.Since(begin))
		if len(exec.Answers) == 0 {
			continue // no participant answered
		}
		verdict, err := s.estimator.Process(exec.Task(prior))
		if err != nil {
			return nil, nil, err
		}
		verdicts = append(verdicts, crowdVerdict{inter: ev.Key, label: verdict.Best}) //lint:allow hotalloc presized to the fresh disagreements
		// The traffic modelling component can also use the verdict to
		// resolve sparsity (Section 2): remember it as a congestion
		// pseudo-reading for FlowMap.
		if v, ok := s.interVertex[ev.Key]; ok {
			s.lastCrowd[ev.Key] = crowdReading{ //lint:allow hotalloc a map value, stored in place
				vertex:    v,
				congested: verdict.Best == traffic.Positive,
				t:         q,
			}
		}
		rounds = append(rounds, CrowdResolution{ //lint:allow hotalloc presized to the fresh disagreements
			Intersection: ev.Key,
			QueryTime:    q,
			Queried:      len(panel.selected),
			Verdict:      verdict,
		})
	}
	if err := s.fileVerdicts(q, verdicts); err != nil {
		return nil, nil, err
	}
	if len(rounds) == 0 {
		return nil, nil, nil // a report without a round carries none, as one without a disagreement
	}
	slices.SortFunc(rounds, func(a, b CrowdResolution) int { return strings.Compare(a.Intersection, b.Intersection) })
	return rounds, verdicts, nil
}

// fileVerdicts feeds boundary q's verdicts back to the engines as one
// block of crowd SDEs, in the given order, each stamped one second after
// q so it arrives for the NEXT window, like a real asynchronous crowd
// response. An intersection the registry does not hold is an error.
func (s *System) fileVerdicts(q Time, verdicts []crowdVerdict) error {
	if len(verdicts) == 0 {
		return nil
	}
	eb := rtec.NewEventBlock(traffic.CrowdType,
		rtec.BCol{Name: "value", Kind: rtec.ColStr},
		rtec.BCol{Name: "lon", Kind: rtec.ColFloat},
		rtec.BCol{Name: "lat", Kind: rtec.ColFloat})
	for _, v := range verdicts {
		inter, ok := s.registry.Lookup(v.inter)
		if !ok {
			return fmt.Errorf("insight: crowd verdict for unknown intersection %q", v.inter)
		}
		eb.Add(q+1, v.inter)
		eb.Str(0, v.label)
		eb.Float(1, inter.Pos.Lon)
		eb.Float(2, inter.Pos.Lat)
	}
	_, err := s.engines.InputCut([]rtec.BlockRun{{Block: eb.Block()}})
	return err
}

// RunReplay builds the pipeline over a recorded stream with fn as its
// OnReport and runs it to the end. It is kept only because the frozen
// cmd/e2ebench calls it; ROADMAP item 2(b) deletes it.
func (s *System) RunReplay(ctx context.Context, sdes []dublin.SDE, from, until Time, fn func(*Report) error) error {
	return runToEnd(ctx)(s.Pipeline(from, until, PipelineOptions{Replay: sdes, OnReport: fn}))
}

// holdingKeys returns the keys of the fluent's instances holding at q,
// sorted, so the report — and everything derived from it (alerts, crowd
// rounds, dashboard output) — is byte-stable across runs.
func holdingKeys(r *rtec.Result, fluent string, q Time) []string {
	insts := r.Fluents[fluent]
	holds := func(kv rtec.KV, l rtec.List) bool { return kv.Value == rtec.TrueValue && l.Contains(q) }
	n := 0
	for kv, l := range insts {
		if holds(kv, l) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out, i := make([]string, n), 0
	for kv, l := range insts {
		if holds(kv, l) {
			out[i] = kv.Key
			i++
		}
	}
	slices.Sort(out)
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
