package insight

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"

	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// benchWorkload restates one workload of cmd/e2ebench (workloads.go),
// which this package cannot import: the same city, window, tier and
// entrance, run through System.Pipeline.
type benchWorkload struct {
	name                  string
	city                  dublin.Config
	from, until, wm, step Time
	durable               bool // a WAL and a checkpoint at every boundary
	operator              bool // default Config, 200 participants, a replayed stream and FlowMap per report
}

// benchWorkloadSeed is cmd/e2ebench's golden seed.
const benchWorkloadSeed = 42

var benchWorkloads = []benchWorkload{
	{name: "dublin1x-durable", city: dublin.Config{Seed: benchWorkloadSeed},
		from: 7 * 3600, until: 7*3600 + 2700, wm: 1800, step: 900, durable: true},
	{name: "dublin10x-recognize", city: dublin.Profile10x(benchWorkloadSeed),
		from: 7 * 3600, until: 7*3600 + 480, wm: 480, step: 240},
	{name: "dublin1x-late", city: dublin.Config{Seed: benchWorkloadSeed, MaxDelay: 600},
		from: 6 * 3600, until: 9 * 3600, wm: 3600, step: 900},
	{name: "dublin1x-operator", city: dublin.Config{Seed: benchWorkloadSeed, NoisyBusFraction: 0.25},
		from: 6 * 3600, until: 9 * 3600, wm: 1800, step: 900, operator: true},
}

// config is the workload's System configuration.
func (w *benchWorkload) config(city *dublin.City) Config {
	tc := traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}
	if w.operator {
		inters := city.Intersections()
		var vols []SimParticipant
		for i := 0; i < 200 && len(inters) > 0; i++ {
			vols = append(vols, SimParticipant{
				ID:        fmt.Sprintf("vol%03d", i),
				Pos:       inters[(i*7)%len(inters)].Pos,
				ErrorProb: 0.05 + 0.02*float64(i%10),
				Network:   qee.Network(i % 3),
			})
		}
		return Config{City: city, Seed: benchWorkloadSeed, Participants: vols, Traffic: tc}
	}
	return Config{
		City: city, Seed: benchWorkloadSeed, WorkingMemory: w.wm, Step: w.step,
		Shards: 2, Store: rtec.StoreColumn, ColumnarTransport: true, UnpacedReplay: true,
		Traffic: tc,
	}
}

// BenchmarkWorkload runs each cmd/e2ebench workload through
// System.Pipeline once per iteration and reports, per SDE, every
// Report.Span stage's wall time (<stage>-ns/SDE) and heap bytes
// (<stage>-B/SDE), the engines' summed and slowest Query times
// (QuerySum-ns/SDE, QueryMax-ns/SDE), and per run the SDEs and the
// work counts. Two runs of one build repeat every count exactly but the
// WAL's and the checkpoints', which depend on the schedule (see Span).
// The operator workload takes its reports through OnReport, with a
// FlowMap each, as cmd/e2ebench's driveOperator does; the others read
// them from Pipeline.Run, as its drivePipeline does.
//
// The city is built once, and each iteration's System and Pipeline —
// stream generation, or the operator's replay conversion, included —
// outside the timer. The run carries the profiler label
// workload=<name>, so a CPU profile of the run alone is
//
//	go test -run '^$' -bench Workload/dublin1x-late -benchtime 5x -cpuprofile cpu.prof .
//	go tool pprof -tagfocus workload=dublin1x-late -top cpu.prof
//
// A -memprofile also holds each iteration's set-up (dublin's
// CollectBatches or BatchSDEs, New, the pipeline build).
func BenchmarkWorkload(b *testing.B) {
	for i := range benchWorkloads {
		w := &benchWorkloads[i]
		b.Run(w.name, func(b *testing.B) {
			city, err := dublin.NewCity(w.city)
			if err != nil {
				b.Fatal(err)
			}
			var replay []dublin.SDE
			if w.operator {
				replay = city.Collect(w.from, w.until)
			}
			var sum Span
			sdes := 0
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				b.StopTimer()
				sys, err := New(w.config(city))
				if err != nil {
					b.Fatal(err)
				}
				opt := PipelineOptions{Replay: replay}
				if w.durable {
					opt.Durable = &DurableOptions{Dir: filepath.Join(b.TempDir(), "run")}
				}
				take := func(rep *Report) {
					sdes += rep.FedEvents
					sum.add(&rep.Span)
				}
				if w.operator {
					opt.OnReport = func(rep *Report) error {
						if _, err := sys.FlowMap(MapConfig{Alpha: 2, Beta: 1, SensorNoise: 2500, CrowdNoise: 1e4}); err != nil {
							return err
						}
						take(rep)
						return nil
					}
				}
				pipe, _, err := sys.Pipeline(w.from, w.until, opt)
				if err != nil {
					b.Fatal(err)
				}
				var reports []*Report
				b.StartTimer()
				pprof.Do(context.Background(), pprof.Labels("workload", w.name), func(ctx context.Context) {
					reports, err = pipe.Run(ctx)
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				for _, rep := range reports {
					take(rep)
				}
				if opt.Durable != nil {
					if err := os.RemoveAll(opt.Durable.Dir); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
			}
			if sdes == 0 {
				b.Fatal("no SDE reached a report")
			}
			sum.report(b, sdes)
		})
	}
}

// add sums s into t, stage by stage and count by count; the maxima
// are summed too, one per boundary.
func (t *Span) add(s *Span) {
	for i, c := range s.stages() {
		t.stages()[i].add(*c)
	}
	t.AdmitMax += s.AdmitMax
	t.AdmitSum += s.AdmitSum
	t.QueryMax += s.QueryMax
	t.QuerySum += s.QuerySum
	t.CrowdRounds += s.CrowdRounds
	t.CrowdMax += s.CrowdMax
	t.RowsAdmitted += s.RowsAdmitted
	t.RowsInserted += s.RowsInserted
	t.Joins += s.Joins
	t.FreshEvents += s.FreshEvents
	t.ReportedProbes += s.ReportedProbes
	t.FoldPoints += s.FoldPoints
	t.WALRecords += s.WALRecords
	t.WALBytes += s.WALBytes
	t.WALSyncs += s.WALSyncs
	t.Checkpoints += s.Checkpoints
	t.CheckpointBytes += s.CheckpointBytes
}

// stageNames names the stages of Span.stages, in its order.
var stageNames = [...]string{"Release", "Admit", "Query", "FoldFresh", "FoldBus", "Merge", "Assemble", "Crowd", "Callback", "WAL", "Checkpoint"}

// stages lists s's stage costs in stageNames order.
func (s *Span) stages() [len(stageNames)]*StageCost {
	return [...]*StageCost{&s.Release, &s.Admit, &s.Query, &s.FoldFresh, &s.FoldBus, &s.Merge, &s.Assemble, &s.Crowd, &s.Callback, &s.WAL, &s.Checkpoint}
}

// report reports t — the spans of b.N runs of sdes SDEs in all — per
// SDE and, for the counts, per run. A stage the workload never runs
// is left out.
func (t *Span) report(b *testing.B, sdes int) {
	perSDE := func(v float64) float64 { return v / float64(sdes) }
	perRun := func(v float64) float64 { return v / float64(b.N) }
	for i, c := range t.stages() {
		if c.Wall == 0 && c.HeapBytes == 0 {
			continue
		}
		b.ReportMetric(perSDE(float64(c.Wall.Nanoseconds())), stageNames[i]+"-ns/SDE")
		b.ReportMetric(perSDE(float64(c.HeapBytes)), stageNames[i]+"-B/SDE")
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{{"QuerySum", t.QuerySum}, {"QueryMax", t.QueryMax}} {
		b.ReportMetric(perSDE(float64(d.v.Nanoseconds())), d.name+"-ns/SDE")
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"SDEs", int64(sdes)},
		{"RowsAdmitted", int64(t.RowsAdmitted)}, {"RowsInserted", int64(t.RowsInserted)},
		{"Joins", t.Joins}, {"FreshEvents", int64(t.FreshEvents)},
		{"ReportedProbes", int64(t.ReportedProbes)}, {"FoldPoints", int64(t.FoldPoints)},
		{"CrowdRounds", int64(t.CrowdRounds)},
		{"WALRecords", t.WALRecords}, {"WALBytes", t.WALBytes}, {"WALSyncs", t.WALSyncs},
		{"Checkpoints", int64(t.Checkpoints)}, {"CheckpointBytes", t.CheckpointBytes},
	} {
		b.ReportMetric(perRun(float64(c.v)), c.name+"/run")
	}
}
