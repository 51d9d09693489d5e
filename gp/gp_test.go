package gp

import (
	"math"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/geo"
)

// pathGraph builds a simple path 0-1-2-...-(n-1).
func pathGraph(n int) *citygraph.Graph {
	g := citygraph.NewGraph()
	for i := 0; i < n; i++ {
		g.AddVertex(geo.At(53.3+float64(i)*0.001, -6.3))
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

// TestRegularizedLaplacianValidation: the dense kernel and both sparse
// solves refuse the same graphs and hyperparameters. α = +Inf (or one so large 1/α² rounds to
// 0) leaves the singular Laplacian, which InverseSPD used to accept.
func TestRegularizedLaplacianValidation(t *testing.T) {
	obs := []Observation{{Vertex: 0, Value: 1}, {Vertex: 2, Value: 3}}
	for _, g := range []*citygraph.Graph{nil, citygraph.NewGraph()} {
		if _, err := RegularizedLaplacian(g, 1, 1); err == nil {
			t.Errorf("RegularizedLaplacian(%v graph) must error", g)
		}
		if _, _, err := MeanAll(g, 1, 1, obs, 1); err == nil {
			t.Errorf("MeanAll(%v graph) must error", g)
		}
		if _, err := VarianceAll(g, 1, 1, obs, 1); err == nil {
			t.Errorf("VarianceAll(%v graph) must error", g)
		}
	}
	g := pathGraph(3)
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}
	for _, tc := range []struct{ alpha, beta []float64 }{
		{append(bad, 1e200, 1e-200), []float64{1}},
		{[]float64{1}, bad},
	} {
		for _, a := range tc.alpha {
			for _, b := range tc.beta {
				if _, err := RegularizedLaplacian(g, a, b); err == nil || !strings.Contains(err.Error(), "hyperparameters") {
					t.Errorf("RegularizedLaplacian(α=%v, β=%v): err = %v, want the hyperparameter error", a, b, err)
				}
				if _, _, err := MeanAll(g, a, b, obs, 1); err == nil || !strings.Contains(err.Error(), "hyperparameters") {
					t.Errorf("MeanAll(α=%v, β=%v): err = %v, want the hyperparameter error", a, b, err)
				}
				if _, err := VarianceAll(g, a, b, obs, 1); err == nil || !strings.Contains(err.Error(), "hyperparameters") {
					t.Errorf("VarianceAll(α=%v, β=%v): err = %v, want the hyperparameter error", a, b, err)
				}
			}
		}
	}
}

func TestKernelProperties(t *testing.T) {
	g := pathGraph(5)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if k.NumVertices() != 5 {
		t.Fatalf("NumVertices = %d", k.NumVertices())
	}
	// Symmetric, positive diagonal.
	for i := 0; i < 5; i++ {
		if k.At(i, i) <= 0 {
			t.Errorf("K[%d,%d] = %v, want > 0", i, i, k.At(i, i))
		}
		for j := 0; j < 5; j++ {
			if math.Abs(k.At(i, j)-k.At(j, i)) > 1e-12 {
				t.Errorf("kernel not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Covariance decays with graph distance: vertex 0 correlates more
	// with its neighbour 1 than with the far end 4.
	if !(k.At(0, 1) > k.At(0, 4)) {
		t.Errorf("K[0,1] = %v should exceed K[0,4] = %v", k.At(0, 1), k.At(0, 4))
	}
	// Doubling β halves the kernel.
	k2, err := RegularizedLaplacian(g, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(k2.At(0, 0)-k.At(0, 0)/2) > 1e-12 {
		t.Errorf("beta scaling broken: %v vs %v", k2.At(0, 0), k.At(0, 0))
	}
}

func TestFitValidation(t *testing.T) {
	g := pathGraph(4)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Fit(nil, []Observation{{Vertex: 0, Value: 1}}, 0.1); err == nil {
		t.Error("nil kernel must error")
	}
	if _, err := Fit(k, nil, 0.1); err == nil {
		t.Error("no observations must error")
	}
	if _, err := Fit(k, []Observation{{Vertex: 0, Value: 1}}, 0); err == nil {
		t.Error("zero noise must error")
	}
	if _, err := Fit(k, []Observation{{Vertex: 9, Value: 1}}, 0.1); err == nil {
		t.Error("out-of-range vertex must error")
	}
}

func TestPredictionInterpolatesAndSmooths(t *testing.T) {
	// Path 0..6: observe high flow at one end, low at the other. The
	// unobserved middle must interpolate monotonically between them,
	// and observed vertices must be approximately reproduced.
	g := pathGraph(7)
	k, err := RegularizedLaplacian(g, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(k, []Observation{{Vertex: 0, Value: 100}, {Vertex: 6, Value: 10}}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance, err := reg.Predict([]int{0, 3, 6})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mean[0]-100) > 15 || math.Abs(mean[2]-10) > 15 {
		t.Errorf("observed vertices poorly reproduced: %v", mean)
	}
	if !(mean[0] > mean[1] && mean[1] > mean[2]) {
		t.Errorf("middle must interpolate: %v", mean)
	}
	// Variance at unobserved middle exceeds variance at observed ends.
	if !(variance[1] > variance[0] && variance[1] > variance[2]) {
		t.Errorf("unobserved vertex must be more uncertain: %v", variance)
	}
}

func TestPredictAllMatchesPredict(t *testing.T) {
	g := pathGraph(5)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(k, []Observation{{Vertex: 1, Value: 5}, {Vertex: 3, Value: 15}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := reg.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 5 {
		t.Fatalf("PredictAll length = %d", len(all))
	}
	mean, _, err := reg.Predict([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(all[2]-mean[0]) > 1e-12 {
		t.Error("PredictAll disagrees with Predict")
	}
	if _, _, err := reg.Predict([]int{99}); err == nil {
		t.Error("out-of-range prediction must error")
	}
}

func TestDuplicateObservationsAveraged(t *testing.T) {
	g := pathGraph(4)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	regDup, err := Fit(k, []Observation{{Vertex: 1, Value: 10}, {Vertex: 1, Value: 20}, {Vertex: 2, Value: 5}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// Two duplicate readings combine by inverse-variance weighting:
	// value 15 with HALF the variance of a single reading.
	regAvg, err := Fit(k, []Observation{{Vertex: 1, Value: 15, Noise: 0.05}, {Vertex: 2, Value: 5}}, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	m1, _, err := regDup.Predict([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, _, err := regAvg.Predict([]int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if math.Abs(m1[i]-m2[i]) > 1e-9 {
			t.Errorf("duplicates not averaged: %v vs %v", m1, m2)
		}
	}
	if got := regDup.Observed(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("Observed = %v", got)
	}
}

func TestSmoothingOnDublinGraph(t *testing.T) {
	// Estimates at unobserved junctions near congested sensors must
	// exceed estimates near free-flowing sensors (the Figure 9
	// behaviour: red near congestion, green in calm areas).
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 12, GridY: 8, Seed: 5})
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Observe high flow on vertices 0..3 (one corner) and low flow on
	// the last 4 (opposite corner).
	n := g.NumVertices()
	obs := []Observation{
		{Vertex: 0, Value: 900}, {Vertex: 1, Value: 880}, {Vertex: 2, Value: 910}, {Vertex: 3, Value: 905},
		{Vertex: n - 1, Value: 80}, {Vertex: n - 2, Value: 95}, {Vertex: n - 3, Value: 70}, {Vertex: n - 4, Value: 85},
	}
	reg, err := Fit(k, obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	all, err := reg.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	// An unobserved neighbour of vertex 0 vs an unobserved neighbour
	// of vertex n-1.
	nearHigh := g.Neighbors(0)[0]
	nearLow := g.Neighbors(n - 1)[0]
	if !(all[nearHigh] > all[nearLow]) {
		t.Errorf("estimate near congested corner (%v) must exceed calm corner (%v)",
			all[nearHigh], all[nearLow])
	}
}

func TestGridSearch(t *testing.T) {
	g := pathGraph(12)
	// Smooth ground truth along the path.
	truth := func(i int) float64 { return 50 + 30*math.Sin(float64(i)/3) }
	var obs []Observation
	for i := 0; i < 12; i += 2 {
		obs = append(obs, Observation{Vertex: i, Value: truth(i)})
	}
	res, err := GridSearch(g, obs, []float64{0.5, 2, 8}, []float64{0.1, 1, 5}, 0.5, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluated != 9 {
		t.Errorf("Evaluated = %d, want 9", res.Evaluated)
	}
	if res.Alpha == 0 || res.Beta == 0 {
		t.Error("no hyperparameters chosen")
	}
	if math.IsInf(res.RMSE, 1) || res.RMSE < 0 {
		t.Errorf("RMSE = %v", res.RMSE)
	}
	// The chosen parameters must predict held-out vertices sensibly:
	// RMSE should be well below the signal amplitude.
	if res.RMSE > 30 {
		t.Errorf("cross-validated RMSE = %v, want < 30", res.RMSE)
	}
}

func TestGridSearchValidation(t *testing.T) {
	g := pathGraph(5)
	obs := []Observation{{Vertex: 0, Value: 1}, {Vertex: 1, Value: 2}, {Vertex: 2, Value: 3}}
	if _, err := GridSearch(g, obs, nil, []float64{1}, 0.1, 2, 1); err == nil {
		t.Error("empty alpha grid must error")
	}
	if _, err := GridSearch(g, obs, []float64{1}, []float64{1}, 0.1, 1, 1); err == nil {
		t.Error("one fold must error")
	}
	if _, err := GridSearch(g, obs[:1], []float64{1}, []float64{1}, 0.1, 2, 1); err == nil {
		t.Error("fewer observations than folds must error")
	}
}

func TestDefaultGrid(t *testing.T) {
	g := DefaultGrid(5)
	if len(g) != 5 {
		t.Fatalf("len = %d", len(g))
	}
	if g[0] <= 0 {
		t.Error("grid must exclude zero")
	}
	if g[len(g)-1] != 10 {
		t.Errorf("grid must end at 10, got %v", g[len(g)-1])
	}
	if len(DefaultGrid(0)) != 5 {
		t.Error("non-positive points must default")
	}
}

func TestHeterogeneousNoise(t *testing.T) {
	// A trusted sensor reading and a noisy crowd-derived reading
	// disagree about the same junction; the fused estimate must sit
	// much closer to the trusted one.
	g := pathGraph(3)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(k, []Observation{
		{Vertex: 1, Value: 100, Noise: 1},    // SCATS: trusted
		{Vertex: 1, Value: 1000, Noise: 100}, // crowd: noisy
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	mean, _, err := reg.Predict([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	// Inverse-variance fusion: (100/1 + 1000/100) / (1/1 + 1/100) ≈ 109.
	if mean[0] > 200 {
		t.Errorf("fused estimate %v ignores observation noise", mean[0])
	}
	if _, err := Fit(k, []Observation{{Vertex: 0, Value: 1, Noise: -1}}, 1); err == nil {
		t.Error("negative per-observation noise must error")
	}
}

func TestNoisierObservationHasLessPull(t *testing.T) {
	g := pathGraph(5)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := []Observation{{Vertex: 0, Value: 50}, {Vertex: 4, Value: 50}}
	// The same outlier at the middle, once trusted, once not.
	trusted, err := Fit(k, append(base, Observation{Vertex: 2, Value: 500, Noise: 0.1}), 1)
	if err != nil {
		t.Fatal(err)
	}
	distrusted, err := Fit(k, append(base, Observation{Vertex: 2, Value: 500, Noise: 1000}), 1)
	if err != nil {
		t.Fatal(err)
	}
	mt, _, err := trusted.Predict([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	md, _, err := distrusted.Predict([]int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !(mt[0] > md[0]) {
		t.Errorf("trusted outlier (%v) must pull harder than distrusted (%v)", mt[0], md[0])
	}
}

func TestGridSearchWorkersBitIdentical(t *testing.T) {
	// The parallel search must return the exact same GridSearchResult —
	// every float bit — regardless of the worker count: work units are
	// independent and the reduction is a serial scan in grid order.
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 10, GridY: 7, Seed: 3})
	truth := func(i int) float64 { return 200 + 120*math.Sin(float64(i)/9) }
	var obs []Observation
	for i := 0; i < g.NumVertices(); i += 3 {
		obs = append(obs, Observation{Vertex: i, Value: truth(i)})
	}
	alphas := []float64{0.5, 2, 8}
	betas := []float64{0.1, 1, 5}
	want, err := GridSearchWith(g, obs, alphas, betas, 1, 4, 7, SearchOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if want.Evaluated != 9 || math.IsInf(want.RMSE, 1) {
		t.Fatalf("serial search result implausible: %+v", want)
	}
	for _, workers := range []int{4, 8} {
		got, err := GridSearchWith(g, obs, alphas, betas, 1, 4, 7, SearchOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("Workers=%d: result %+v differs from serial %+v", workers, got, want)
		}
	}
	// The option-less wrapper uses default parallelism and must agree too.
	got, err := GridSearch(g, obs, alphas, betas, 1, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("GridSearch default result %+v differs from serial %+v", got, want)
	}
}

func TestFitHeterogeneousNoiseCombinesWithDefault(t *testing.T) {
	// A default-noise reading (Noise: 0 → noiseVar) and an explicit-
	// noise reading at the same vertex must fuse by inverse-variance
	// weighting: equivalent to one observation at the fused value with
	// the combined precision.
	g := pathGraph(5)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	const noiseVar = 0.1
	mixed := []Observation{
		{Vertex: 2, Value: 10},             // uses noiseVar
		{Vertex: 2, Value: 40, Noise: 0.3}, // explicit
		{Vertex: 0, Value: 25},
	}
	fusedValue := (10/noiseVar + 40/0.3) / (1/noiseVar + 1/0.3)
	fusedNoise := 1 / (1/noiseVar + 1/0.3)
	fused := []Observation{
		{Vertex: 2, Value: fusedValue, Noise: fusedNoise},
		{Vertex: 0, Value: 25},
	}
	rMixed, err := Fit(k, mixed, noiseVar)
	if err != nil {
		t.Fatal(err)
	}
	rFused, err := Fit(k, fused, noiseVar)
	if err != nil {
		t.Fatal(err)
	}
	mm, vm, err := rMixed.Predict([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	mf, vf, err := rFused.Predict([]int{1, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range mm {
		if math.Abs(mm[i]-mf[i]) > 1e-9 || math.Abs(vm[i]-vf[i]) > 1e-9 {
			t.Errorf("mixed-noise fusion diverges: mean %v vs %v, var %v vs %v", mm, mf, vm, vf)
		}
	}
}

func TestFitConstantObservationsScaleFloor(t *testing.T) {
	// All-equal observations have zero empirical variance; the scale
	// floor must keep the fit finite and reproduce the constant.
	g := pathGraph(6)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{{Vertex: 0, Value: 42}, {Vertex: 2, Value: 42}, {Vertex: 5, Value: 42}}
	reg, err := Fit(k, obs, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mean, variance, err := reg.Predict([]int{0, 2, 3, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range mean {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			t.Fatalf("constant fit produced %v at %d", m, i)
		}
		if math.Abs(m-42) > 5 {
			t.Errorf("prediction %d = %v, want ≈ 42", i, m)
		}
		if variance[i] < 0 || math.IsNaN(variance[i]) {
			t.Errorf("variance %d = %v", i, variance[i])
		}
	}
}

func TestFitDuplicateAveragingDeterministic(t *testing.T) {
	g := pathGraph(5)
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{
		{Vertex: 1, Value: 10}, {Vertex: 1, Value: 20}, {Vertex: 1, Value: 60, Noise: 0.4},
		{Vertex: 3, Value: 5}, {Vertex: 3, Value: 7},
	}
	// Same input order: results must be bit-identical run to run (the
	// per-vertex accumulation must not leak map iteration order).
	r1, err := Fit(k, obs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Fit(k, obs, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	m1, v1, err := r1.Predict([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	m2, v2, err := r2.Predict([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if m1[i] != m2[i] || v1[i] != v2[i] {
			t.Errorf("repeated Fit not bit-identical: %v vs %v", m1, m2)
		}
	}
	// Permuted duplicates: same model up to floating-point tolerance.
	perm := []Observation{
		{Vertex: 3, Value: 7}, {Vertex: 1, Value: 60, Noise: 0.4}, {Vertex: 3, Value: 5},
		{Vertex: 1, Value: 20}, {Vertex: 1, Value: 10},
	}
	rp, err := Fit(k, perm, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := rp.Predict([]int{0, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range m1 {
		if math.Abs(m1[i]-mp[i]) > 1e-9 {
			t.Errorf("duplicate order changed the model: %v vs %v", m1, mp)
		}
	}
}

func TestParallelFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		n := 57
		hits := make([]int, n)
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{}, 1)
		}
		parallelFor(workers, n, func(i int) {
			hits[i]++ // disjoint writes; -race verifies the claim
			done[i] <- struct{}{}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, h)
			}
		}
	}
	parallelFor(4, 0, func(int) { t.Fatal("n=0 must not call fn") })
}
