package gp

import (
	"math"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/internal/linalg"
)

// The GP performance benches behind `make bench-gp` (BENCH_gp.json) at
// city scale (n≈512 street-graph vertices): the flow map's mean, sparse
// against dense (MeanAll: what FlowMap pays); the dense path's kernel
// build, fit, predict-all and predict (mean + variance, what cmd/gpmap
// pays); and grid search. The dense stages and the search run in two
// modes —
//
//	serial:   Options{Reference: true} + Workers 1, the seed's naive
//	          kernels and sequential search (the baseline),
//	blocked:  the default blocked/parallel kernels and parallel search.
//
// Mode is flipped through linalg.SetDefaultOptions, so the whole dense
// stack (Laplacian inversion, observed-block factorization, predictive
// solves) switches implementation, not just one call site. The search's
// units are MeanAll solves, which use no linalg kernel: there the modes
// differ only in Workers.

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

type benchMode struct {
	name    string
	opts    linalg.Options
	workers int // SearchOptions.Workers for the grid search
}

var benchModes = []benchMode{
	{name: "serial", opts: linalg.Options{Reference: true}, workers: 1},
	{name: "blocked", opts: linalg.Options{}, workers: 0},
}

func BenchmarkGP_KernelBuild(b *testing.B) {
	g := benchGraph512()
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			prev := linalg.SetDefaultOptions(m.opts)
			defer linalg.SetDefaultOptions(prev)
			for i := 0; i < b.N; i++ {
				if _, err := RegularizedLaplacian(g, 2, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGP_Fit(b *testing.B) {
	g := benchGraph512()
	kernel, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObservations(g, 2) // 260 observed vertices
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			prev := linalg.SetDefaultOptions(m.opts)
			defer linalg.SetDefaultOptions(prev)
			for i := 0; i < b.N; i++ {
				if _, err := Fit(kernel, obs, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
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
	obs := benchObservations(g, 2)
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
	}
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			prev := linalg.SetDefaultOptions(m.opts)
			defer linalg.SetDefaultOptions(prev)
			reg, err := Fit(kernel, obs, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := predict(reg, all); err != nil {
					b.Fatal(err)
				}
			}
		})
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
// substitution per vertex. Nothing on the product path pays it; the
// number stays so the cost of asking for it is known.
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

func BenchmarkGP_GridSearch(b *testing.B) {
	g := benchGraph512()
	obs := benchObservations(g, 4) // 130 observed vertices
	alphas := []float64{0.5, 2, 8}
	betas := []float64{0.1, 1, 5}
	for _, m := range benchModes {
		b.Run(m.name, func(b *testing.B) {
			prev := linalg.SetDefaultOptions(m.opts)
			defer linalg.SetDefaultOptions(prev)
			for i := 0; i < b.N; i++ {
				if _, err := GridSearchWith(g, obs, alphas, betas, 1, 4, 1, SearchOptions{Workers: m.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
