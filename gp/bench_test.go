package gp

import (
	"math"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
)

// The GP performance benches behind `make bench-gp` (BENCH_gp.json) at
// city scale (n≈512 street-graph vertices): the flow map's mean and
// Figure 9's uncertainty map, each sparse (MeanAll, VarianceAll: what
// FlowMap and cmd/gpmap pay) against the dense oracle; the dense path's
// stages — kernel build, fit, predict-all (the mean) and predict (mean
// + variance) — which the random-walk kernel ablation runs; and the
// grid search, whose units are MeanAll solves.

func benchGraph512() *citygraph.Graph {
	// 520 vertices with the default Dublin structure (river gap,
	// diagonals) — the n≈512 scale of the acceptance target.
	return citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 26, GridY: 20, Seed: 11})
}

func benchObservations(g *citygraph.Graph, every int) []Observation {
	var obs []Observation
	for i := 0; i < g.NumVertices(); i += every {
		obs = append(obs, Observation{Vertex: i, Value: 300 + 150*math.Sin(float64(i)/17)})
	}
	return obs
}

func BenchmarkGP_KernelBuild(b *testing.B) {
	g := benchGraph512()
	for i := 0; i < b.N; i++ {
		if _, err := RegularizedLaplacian(g, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGP_Fit(b *testing.B) {
	g := benchGraph512()
	kernel, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservations(g, 2) // 260 observed vertices
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(kernel, obs, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPredict times one prediction over every vertex of the 520-vertex
// graph against 260 observed vertices.
func benchPredict(b *testing.B, predict func(reg *Regression, all []int) error) {
	g := benchGraph512()
	kernel, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	reg, err := Fit(kernel, benchObservations(g, 2), 1)
	if err != nil {
		b.Fatal(err)
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := predict(reg, all); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGP_PredictAll is the mean path: one gather, one product.
func BenchmarkGP_PredictAll(b *testing.B) {
	benchPredict(b, func(reg *Regression, _ []int) error {
		_, err := reg.PredictAll()
		return err
	})
}

// BenchmarkGP_Predict adds the variance: a forward and a backward
// substitution per vertex.
func BenchmarkGP_Predict(b *testing.B) {
	benchPredict(b, func(reg *Regression, all []int) error {
		_, _, err := reg.Predict(all)
		return err
	})
}

// BenchmarkGP_MeanAll is the flow map both ways: the information-form
// solve over the street graph (what FlowMap and each grid-search unit
// pay) against the dense oracle with its kernel built (FlowMap's first
// call before the solver) and reused (its later calls, with a cache).
func BenchmarkGP_MeanAll(b *testing.B) {
	g := benchGraph512()
	obs := benchObservations(g, 2)
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := MeanAll(g, 2, 1, obs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense+kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := denseMeanAll(g, 2, 1, obs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	kernel, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg, err := Fit(kernel, obs, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := reg.PredictAll(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGP_VarianceAll is Figure 9's uncertainty map both ways: one
// sparse solve per vertex (what cmd/gpmap pays) against the dense
// oracle, Fit + Predict over every vertex, with its kernel built and
// reused.
func BenchmarkGP_VarianceAll(b *testing.B) {
	g := benchGraph512()
	obs := benchObservations(g, 2)
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	b.Run("sparse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := VarianceAll(g, 2, 1, obs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dense+kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := denseVarianceAll(g, 2, 1, obs, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	kernel, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			reg, err := Fit(kernel, obs, 1)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := reg.Predict(all); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkGP_GridSearch(b *testing.B) {
	g := benchGraph512()
	obs := benchObservations(g, 4) // 130 observed vertices
	alphas := []float64{0.5, 2, 8}
	betas := []float64{0.1, 1, 5}
	for i := 0; i < b.N; i++ {
		if _, err := GridSearch(g, obs, alphas, betas, 1, 4, 1); err != nil {
			b.Fatal(err)
		}
	}
}
