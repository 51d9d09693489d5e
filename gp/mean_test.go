package gp

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/internal/linalg"
)

// relClose reports |a−b| ≤ tol·max(1, |a|, |b|).
func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestMeanMatchesPredict holds the mean-only path to Predict's mean and
// to the per-element formula it replaced (a Kernel.At per cross entry,
// one Dot per vertex) — for random vertex subsets with duplicates and
// heterogeneous noise.
func TestMeanMatchesPredict(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 12, GridY: 9, Seed: 5})
	n := g.NumVertices()
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var obs []Observation
	for i := 0; i < n; i += 2 {
		o := Observation{Vertex: i, Value: 600 + 400*math.Sin(float64(i)/7)}
		if i%6 == 0 {
			o.Noise = 9e3
		}
		obs = append(obs, o)
	}
	obs = append(obs, Observation{Vertex: 4, Value: 900}) // a duplicate vertex
	reg, err := Fit(k, obs, 2500)
	if err != nil {
		t.Fatal(err)
	}
	vertices := make([]int, 40)
	for i := range vertices {
		vertices[i] = rng.Intn(n)
	}
	vertices[7], vertices[8] = vertices[3], vertices[3]
	mean, err := reg.Mean(vertices)
	if err != nil {
		t.Fatal(err)
	}
	pm, _, err := reg.Predict(vertices)
	if err != nil {
		t.Fatal(err)
	}
	all, err := reg.PredictAll()
	if err != nil {
		t.Fatal(err)
	}
	cross := make([]float64, len(reg.observed))
	for i, v := range vertices {
		for j, u := range reg.observed {
			cross[j] = k.At(v, u)
		}
		want := reg.mean + reg.scale*linalg.Dot(cross, reg.alphaVec)
		if mean[i] != pm[i] || mean[i] != all[v] { //lint:allow floateq one implementation: the three entry points must agree bit for bit
			t.Fatalf("vertex %d: Mean %v, Predict %v, PredictAll %v", v, mean[i], pm[i], all[v])
		}
		if mean[i] != want { //lint:allow floateq the product and the per-element form run the same operations in the same order
			t.Errorf("vertex %d: mean %v not bit-identical to the per-element reference %v", v, mean[i], want)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Mean([]int{0, n}); err == nil {
		t.Error("out-of-range vertex must error")
	}
	if m, err := reg.Mean(nil); err != nil || len(m) != 0 {
		t.Errorf("Mean(nil) = %v, %v", m, err)
	}
}

// TestPredictVarianceClosedForm checks Predict's variance against
// Σ = K_vv − K_vu (K_uu + Σ_noise)⁻¹ K_uv assembled from the kernel's
// entries and a dense inverse, with heterogeneous noise.
func TestPredictVarianceClosedForm(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 8, GridY: 7, Seed: 2})
	n := g.NumVertices()
	if n > 60 {
		t.Fatalf("fixture grew to %d vertices", n)
	}
	k, err := RegularizedLaplacian(g, 1.5, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	var obs []Observation
	for i := 1; i < n; i += 3 {
		o := Observation{Vertex: i, Value: 300 + 90*math.Cos(float64(i)/5)}
		if i%2 == 0 {
			o.Noise = 400
		}
		obs = append(obs, o)
	}
	const noiseVar = 100.0
	// The model works on standardized readings: kernel entries are in
	// units of the readings' variance s².
	var mu, s2 float64
	for _, o := range obs {
		mu += o.Value
	}
	mu /= float64(len(obs))
	for _, o := range obs {
		s2 += (o.Value - mu) * (o.Value - mu)
	}
	s2 /= float64(len(obs))
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	reg, err := Fit(k, obs, noiseVar)
	if err != nil {
		t.Fatal(err)
	}
	a := linalg.NewMatrix(len(obs), len(obs))
	for i, oi := range obs {
		for j, oj := range obs {
			a.Set(i, j, s2*k.At(oi.Vertex, oj.Vertex))
		}
		nv := oi.Noise
		if nv == 0 { //lint:allow floateq zero is Observation.Noise's "use the default" sentinel
			nv = noiseVar
		}
		a.Add(i, i, nv)
	}
	inv, err := linalg.InverseSPD(a)
	if err != nil {
		t.Fatal(err)
	}
	_, variance, err := reg.Predict(all)
	if err != nil {
		t.Fatal(err)
	}
	cross := make([]float64, len(obs))
	for v := 0; v < n; v++ {
		for j, o := range obs {
			cross[j] = s2 * k.At(v, o.Vertex)
		}
		want := s2*k.At(v, v) - linalg.Dot(cross, inv.MulVec(cross))
		if !relClose(variance[v], want, 1e-9) {
			t.Errorf("vertex %d: variance %v, closed form %v", v, variance[v], want)
		}
	}
}

// TestGridSearchPinned pins the search on the package's two grid-search
// fixtures to the values the dense per-fold Fit + Predict produced
// before each unit became one MeanAll solve: the winner and the count
// exactly, the RMSE within meanTolerance (the cross-validation mean is
// the sparse solver's, not the dense oracle's).
func TestGridSearchPinned(t *testing.T) {
	alphas, betas := []float64{0.5, 2, 8}, []float64{0.1, 1, 5}
	path := pathGraph(12)
	var pathObs []Observation
	for i := 0; i < 12; i += 2 {
		pathObs = append(pathObs, Observation{Vertex: i, Value: 50 + 30*math.Sin(float64(i)/3)})
	}
	dublin := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 10, GridY: 7, Seed: 3})
	var dublinObs []Observation
	for i := 0; i < dublin.NumVertices(); i += 3 {
		dublinObs = append(dublinObs, Observation{Vertex: i, Value: 200 + 120*math.Sin(float64(i)/9)})
	}
	check := func(name string, got GridSearchResult, err error, want GridSearchResult) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Alpha != want.Alpha || got.Beta != want.Beta || got.Evaluated != want.Evaluated || !relClose(got.RMSE, want.RMSE, meanTolerance) { //lint:allow floateq grid points are chosen, not computed
			t.Errorf("%s: got %+v, want %+v", name, got, want)
		}
	}
	for _, workers := range []int{1, 0} {
		got, err := GridSearchWith(path, pathObs, alphas, betas, 0.5, 3, 1, SearchOptions{Workers: workers})
		check("path", got, err, GridSearchResult{Alpha: 8, Beta: 0.1, RMSE: 11.702264459838036, Evaluated: 9})
		got, err = GridSearchWith(dublin, dublinObs, alphas, betas, 1, 4, 7, SearchOptions{Workers: workers})
		check("dublin", got, err, GridSearchResult{Alpha: 2, Beta: 0.1, RMSE: 83.383796654003234, Evaluated: 9})
	}
}

// TestFitRejectsNonFinite: one NaN or ±Inf reading must be an error
// naming the vertex, not 792 NaN estimates with a nil error.
func TestFitRejectsNonFinite(t *testing.T) {
	k, err := RegularizedLaplacian(pathGraph(6), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := Observation{Vertex: 1, Value: 10}
	for _, tc := range []struct {
		name  string
		obs   Observation
		noise float64
	}{
		{"NaN value", Observation{Vertex: 4, Value: math.NaN()}, 1},
		{"+Inf value", Observation{Vertex: 4, Value: math.Inf(1)}, 1},
		{"-Inf value", Observation{Vertex: 4, Value: math.Inf(-1)}, 1},
		{"NaN noise", Observation{Vertex: 4, Value: 5, Noise: math.NaN()}, 1},
		{"+Inf noise", Observation{Vertex: 4, Value: 5, Noise: math.Inf(1)}, 1},
		{"negative noise", Observation{Vertex: 4, Value: 5, Noise: -2}, 1},
	} {
		_, err := Fit(k, []Observation{good, tc.obs}, tc.noise)
		if err == nil || !strings.Contains(err.Error(), "vertex 4") {
			t.Errorf("%s: err = %v, want an error naming vertex 4", tc.name, err)
		}
	}
	for _, nv := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		if _, err := Fit(k, []Observation{good}, nv); err == nil {
			t.Errorf("noise variance %v must be rejected", nv)
		}
	}
}

// FuzzFit: whatever the readings, Fit either refuses them or every
// estimate it leads to is finite.
func FuzzFit(f *testing.F) {
	f.Add(10.0, 0.0, 20.0, 0.0, 1.0)
	f.Add(math.NaN(), 0.0, 20.0, 0.0, 1.0)
	f.Add(10.0, math.Inf(1), 20.0, 0.0, 1.0)
	f.Add(1e300, 1e-300, -1e300, 0.0, 1e-9)
	f.Add(5.0, 0.0, 5.0, 0.0, math.NaN())
	k, err := RegularizedLaplacian(pathGraph(5), 2, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, v0, n0, v1, n1, noiseVar float64) {
		reg, err := Fit(k, []Observation{{Vertex: 0, Value: v0, Noise: n0}, {Vertex: 3, Value: v1, Noise: n1}}, noiseVar)
		if err != nil {
			return
		}
		mean, variance, err := reg.Predict([]int{0, 1, 2, 3, 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range mean {
			if math.IsNaN(mean[i]) || math.IsInf(mean[i], 0) || math.IsNaN(variance[i]) || math.IsInf(variance[i], 0) {
				t.Fatalf("Fit accepted (%v±%v, %v±%v, σ²=%v) but vertex %d predicts %v ± %v", v0, n0, v1, n1, noiseVar, i, mean[i], variance[i])
			}
		}
	})
}

// TestAllocBudget_PredictAll: the city-wide mean is a gather and one
// product — a constant number of slices whatever the graph size, where
// the per-vertex variance solve it replaced allocated twice per vertex.
func TestAllocBudget_PredictAll(t *testing.T) {
	g := benchGraph512()
	k, err := RegularizedLaplacian(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(k, benchObservations(g, 2), 1)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := reg.PredictAll(); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 6 // vertex list, gathered block (header + data), result; headroom for the race detector
	if allocs > budget {
		t.Errorf("PredictAll allocates %.0f objects on %d vertices, budget %d", allocs, g.NumVertices(), budget)
	}
}
