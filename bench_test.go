package insight

// Benchmarks regenerating the paper's evaluation figures (Section 7)
// at test scale. The cmd/ binaries run the same experiments at the
// paper's full scale and print the figures' data series:
//
//	Figure 4 — cmd/figures     (CE recognition time vs working memory)
//	Figure 5 — cmd/figures     (online EM estimation quality)
//	Figure 6 — cmd/figures     (query execution engine latency)
//	Figures 7-9 — cmd/figures  (street network + GP flow estimates)

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/crowd"
	"github.com/insight-dublin/insight/crowd/qee"
	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/gp"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/traffic"
)

// benchCity is a 1/8-scale Dublin (118 buses, 121 sensors) so the
// Figure 4 sweep finishes in benchmark time; shapes are scale-free.
func benchCity(b *testing.B) *dublin.City {
	b.Helper()
	city, err := dublin.NewCity(dublin.Config{
		Seed:       1,
		NumBuses:   118,
		NumSensors: 121,
	})
	if err != nil {
		b.Fatal(err)
	}
	return city
}

// benchRun drives the product path — the Streams pipeline over an
// insight.System, SDEs admitted by arrival at every query boundary —
// over [from, until) once per iteration. The pipeline is built, and the
// window collected, outside the timer: the timed region is Pipeline.Run
// (transport, admission, recognition), nothing else. swap, when set,
// replaces the fresh system's engines before the build.
func benchRun(b *testing.B, cfg Config, from, until Time, swap func(*System) engineTier) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if swap != nil {
			sys.engines = swap(sys)
		}
		pipe, _, err := sys.Pipeline(from, until, PipelineOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		reports, err := pipe.Run(context.Background())
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		fed := 0
		for _, r := range reports {
			fed += r.FedEvents
		}
		b.ReportMetric(float64(fed), "SDEs")
		b.StartTimer()
	}
}

// runFig4 measures one CE recognition pass at the given working
// memory, in static or self-adaptive mode: one window, one query, on
// the tier cmd/figures' figure4 table runs (four shards).
func runFig4(b *testing.B, wmMinutes int, adaptive bool) {
	wm := Time(wmMinutes * 60)
	from := Time(7 * 3600)
	benchRun(b, Config{
		City:          benchCity(b),
		WorkingMemory: wm,
		Step:          wm,
		Shards:        4,
		Traffic:       traffic.Config{Adaptive: adaptive, NoisyPolicy: traffic.Pessimistic},
	}, from, from+wm, nil)
}

// BenchmarkFig4_EventRecognition sweeps the working memory from 10 to
// 110 minutes in static and self-adaptive mode (Figure 4). The paper's
// findings to reproduce: recognition time grows roughly linearly with
// the window, the self-adaptive overhead is minimal, and recognition
// stays well under the window length (real-time).
func BenchmarkFig4_EventRecognition(b *testing.B) {
	for _, mode := range []struct {
		name     string
		adaptive bool
	}{{"static", false}, {"adaptive", true}} {
		for _, wmMin := range []int{10, 30, 50, 70, 90, 110} {
			b.Run(fmt.Sprintf("%s/WM=%dmin", mode.name, wmMin), func(b *testing.B) {
				runFig4(b, wmMin, mode.adaptive)
			})
		}
	}
}

// BenchmarkFig5_OnlineEM measures the online EM step over the paper's
// ten simulated participants with four possible answers (Figure 5's
// workload: 1000 fused queries).
func BenchmarkFig5_OnlineEM(b *testing.B) {
	probs := []float64{0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9}
	labels := []string{"congestion", "no congestion", "accident", "roadworks"}
	sims := make([]*crowd.SimulatedParticipant, len(probs))
	for i, p := range probs {
		sims[i] = crowd.NewSimulatedParticipant(fmt.Sprintf("p%d", i+1), p, int64(i))
	}
	rng := rand.New(rand.NewSource(5))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est := crowd.NewEstimator(crowd.EstimatorOptions{})
		for q := 0; q < 1000; q++ {
			truth := labels[rng.Intn(len(labels))]
			task := crowd.Task{ID: "t", Labels: labels}
			for _, sp := range sims {
				task.Answers = append(task.Answers, sp.Answer(labels, truth))
			}
			if _, err := est.Process(task); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6_QEE measures a full crowdsourcing query execution
// (map + reduce) per network type with the paper-calibrated latency
// profile on the virtual clock (Figure 6).
func BenchmarkFig6_QEE(b *testing.B) {
	for _, network := range qee.Networks {
		b.Run(network.String(), func(b *testing.B) {
			engine := qee.NewEngine(qee.Options{Seed: 2})
			var selected []crowd.Participant
			for i := 0; i < 5; i++ {
				id := fmt.Sprintf("w%d", i)
				if err := engine.Connect(qee.Device{
					Participant: crowd.Participant{ID: id},
					Network:     network,
					Respond:     func(qee.Query) (string, time.Duration) { return "yes", 0 },
				}); err != nil {
					b.Fatal(err)
				}
				selected = append(selected, crowd.Participant{ID: id})
			}
			query := qee.Query{ID: "q", Answers: []string{"yes", "no"}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.Execute(context.Background(), query, selected); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig9_GP measures the traffic modelling pass of Figure 9 at
// every junction of the street network from the SCATS readings, sparse
// and dense: mean-all is the information-form solve FlowMap and
// cmd/figures run for the flow map, variance-all the per-vertex solves
// cmd/figures runs for its uncertainty map (no kernel either); kernel and
// fit+predict are the dense oracle — building the kernel, fitting and
// predicting the mean on it.
func BenchmarkFig9_GP(b *testing.B) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 20, GridY: 12, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	var obs []gp.Observation
	for i := 0; i < g.NumVertices()/4; i++ {
		obs = append(obs, gp.Observation{
			Vertex: rng.Intn(g.NumVertices()),
			Value:  200 + rng.Float64()*1200,
		})
	}
	b.Run("mean-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := gp.MeanAll(g, 2, 1, obs, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("variance-all", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.VarianceAll(g, 2, 1, obs, 100); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := gp.RegularizedLaplacian(g, 2, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	kernel, err := gp.RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("fit+predict", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg, err := gp.Fit(kernel, obs, 100)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := reg.PredictAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDatasetGeneration measures the synthetic stream generator
// (the stand-in for the 13 GB Dublin feed) the way System.Pipeline runs
// it: CollectBatches into transport batches, from 07:00 on the morning
// peak, at the paper's scale and at Profile10x. The city is built
// outside the timer; ns/SDE is the generation cost per emitted row.
func BenchmarkDatasetGeneration(b *testing.B) {
	const from = 7 * 3600
	for _, bc := range []struct {
		name        string
		cfg         dublin.Config
		span, batch Time
	}{
		{"1x", dublin.Config{Seed: 42}, 900, 450},
		{"10x", dublin.Profile10x(42), 120, 120},
	} {
		b.Run(bc.name, func(b *testing.B) {
			city, err := dublin.NewCity(bc.cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sdes := 0
			for i := 0; i < b.N; i++ {
				for _, bs := range city.CollectBatches(from, from+bc.span, transportBatchRows, bc.batch) {
					for _, batch := range bs.Batches {
						sdes += batch.Len()
						batch.Release()
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(sdes), "ns/SDE")
		})
	}
}

// BenchmarkStepRatio measures the amortized cost of overlapping
// windows: with WM fixed at 20 min, smaller steps re-evaluate each SDE
// more often (an SDE is inside WM/step consecutive windows). This is
// the recognition-cost side of the Figure 2 trade-off whose benefit
// cmd/figures' ablation table measures.
func BenchmarkStepRatio(b *testing.B) {
	runStepRatio(b, false)
}

// BenchmarkStepRatioFullRecompute is the same workload with the
// engine's incremental overlap caching disabled — the test-side oracle
// the incremental path is measured against (no Config selects it: the
// bench swaps the engine in).
func BenchmarkStepRatioFullRecompute(b *testing.B) {
	runStepRatio(b, true)
}

func runStepRatio(b *testing.B, forceFull bool) {
	city := benchCity(b)
	const wm = Time(20 * 60)
	for _, stepMin := range []int{20, 10, 5} {
		b.Run(fmt.Sprintf("WM=20min/step=%dmin", stepMin), func(b *testing.B) {
			step := Time(stepMin * 60)
			from := Time(7 * 3600)
			var swap func(*System) engineTier
			if forceFull {
				swap = func(sys *System) engineTier {
					part, err := rtec.NewPartitioned(sys.defs,
						rtec.Options{WorkingMemory: wm, Step: step, ForceFullRecompute: true},
						1, func(*rtec.Block) func(int) int { return func(int) int { return 0 } })
					if err != nil {
						b.Fatal(err)
					}
					return partitionedTier{part}
				}
			}
			// One engine, one monitored hour.
			benchRun(b, Config{City: city, WorkingMemory: wm, Step: step, Partitions: 1}, from, from+3600, swap)
		})
	}
}
