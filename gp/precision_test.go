package gp

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/geo"
)

// meanTolerance is how closely MeanAll must agree with the dense
// oracle (RegularizedLaplacian + Fit + PredictAll): relative to the
// largest estimate of the map (at least 1). Measured differences are
// ≤ 1.4e-12; the solver stops once its error bound is within
// cgTolerance of the solution.
const meanTolerance = 1e-9

// denseMeanAll is the oracle: the dense kernel, its observed-block
// Cholesky and the gathered product.
func denseMeanAll(g *citygraph.Graph, alpha, beta float64, obs []Observation, noiseVar float64) ([]float64, error) {
	k, err := RegularizedLaplacian(g, alpha, beta)
	if err != nil {
		return nil, err
	}
	reg, err := Fit(k, obs, noiseVar)
	if err != nil {
		return nil, err
	}
	return reg.PredictAll()
}

// denseVarianceAll is VarianceAll's oracle: Predict's variance at every
// vertex against the dense kernel, and the largest prior variance
// K_vv·s² that variance was subtracted from.
func denseVarianceAll(g *citygraph.Graph, alpha, beta float64, obs []Observation, noiseVar float64) (variance []float64, prior float64, err error) {
	k, err := RegularizedLaplacian(g, alpha, beta)
	if err != nil {
		return nil, 0, err
	}
	reg, err := Fit(k, obs, noiseVar)
	if err != nil {
		return nil, 0, err
	}
	all := make([]int, g.NumVertices())
	for i := range all {
		all[i] = i
		prior = math.Max(prior, k.At(i, i)*reg.scale*reg.scale)
	}
	_, variance, err = reg.Predict(all)
	return variance, prior, err
}

// maxDiff returns max_v |got_v − want_v| / max(floor, max_v |want_v|):
// the mean is compared relative to its largest value but at least 1,
// the variance relative to its largest value.
func maxDiff(got, want []float64, floor float64) float64 {
	scale, diff := floor, 0.0
	for v := range want {
		scale = math.Max(scale, math.Abs(want[v]))
		diff = math.Max(diff, math.Abs(got[v]-want[v]))
	}
	return diff / scale
}

// FuzzMeanVsDense: on a small connected graph (a path plus chords),
// α, β ∈ (0, 10] and one to eight observations with their own noises,
// the information-form mean and variance equal the dense oracle's within
// meanTolerance of the map's largest value, and the paths refuse the
// same inputs.
func FuzzMeanVsDense(f *testing.F) {
	f.Add(uint8(10), []byte{0, 5, 2, 9}, uint16(13106), uint16(6552), []byte{1, 20, 0, 7, 90, 40, 3, 200, 0})
	f.Add(uint8(40), []byte{}, uint16(65535), uint16(0), []byte{0, 127, 255, 39, 128, 1})
	f.Add(uint8(62), []byte{3, 60, 10, 50, 22, 23, 0, 61}, uint16(0), uint16(65535), []byte{5, 5, 5, 5, 6, 5})
	f.Add(uint8(3), []byte{0, 2}, uint16(300), uint16(30000), []byte{2, 100, 64})
	f.Fuzz(func(t *testing.T, size uint8, chords []byte, alphaBits, betaBits uint16, raw []byte) {
		n := 2 + int(size)%63
		g := citygraph.NewGraph()
		for i := 0; i < n; i++ {
			g.AddVertex(geo.At(53.3+float64(i)*0.001, -6.3))
		}
		for i := 0; i+1 < n; i++ {
			g.AddEdge(i, i+1)
		}
		for i := 0; i+1 < len(chords) && i < 64; i += 2 {
			g.AddEdge(int(chords[i])%n, int(chords[i+1])%n)
		}
		alpha := 10 * (float64(alphaBits) + 1) / 65536
		beta := 10 * (float64(betaBits) + 1) / 65536
		// Observation i is (vertex, value, noise) bytes; noise byte 0
		// means the default, else 10^[-1, 3].
		var obs []Observation
		for i := 0; i+2 < len(raw) && len(obs) < 8; i += 3 {
			o := Observation{Vertex: int(raw[i]) % n, Value: 10 * float64(int8(raw[i+1]))}
			if raw[i+2] != 0 {
				o.Noise = math.Pow(10, float64(raw[i+2])/64-1)
			}
			obs = append(obs, o)
		}
		if len(obs) == 0 {
			return
		}
		const noiseVar = 100
		want, errDense := denseMeanAll(g, alpha, beta, obs, noiseVar)
		got, observed, errSparse := MeanAll(g, alpha, beta, obs, noiseVar)
		gotVar, errVar := VarianceAll(g, alpha, beta, obs, noiseVar)
		if (errDense == nil) != (errSparse == nil) || (errDense == nil) != (errVar == nil) {
			t.Fatalf("n=%d α=%v β=%v %v: dense err %v, sparse mean err %v, sparse variance err %v", n, alpha, beta, obs, errDense, errSparse, errVar)
		}
		if errDense != nil {
			return
		}
		if d := maxDiff(got, want, 1); !(d <= meanTolerance) {
			t.Fatalf("n=%d α=%v β=%v %v: sparse mean differs from dense by %.3g (relative), tolerance %g", n, alpha, beta, obs, d, meanTolerance)
		}
		wantVar, prior, err := denseVarianceAll(g, alpha, beta, obs, noiseVar)
		if err != nil {
			t.Fatal(err)
		}
		// Predict subtracts a term as large as the prior variance, so the
		// oracle is good only to rounding of the prior: where observations
		// pin the posterior below 1e-3 of the prior, the scale is 1e-3 of
		// the prior (1e-12 of it at meanTolerance).
		if d := maxDiff(gotVar, wantVar, 1e-3*prior); !(d <= meanTolerance) {
			t.Fatalf("n=%d α=%v β=%v %v: sparse variance differs from dense by %.3g (relative), tolerance %g", n, alpha, beta, obs, d, meanTolerance)
		}
		for i := 1; i < len(observed); i++ {
			if observed[i] <= observed[i-1] {
				t.Fatalf("observed vertices not sorted and distinct: %v", observed)
			}
		}
	})
}

// TestMeanAllMatchesDense holds MeanAll to the oracle on a Dublin-like
// graph with duplicates and heterogeneous noise, at the grid's corners,
// and to the dense path's observed-vertex list.
func TestMeanAllMatchesDense(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 12, GridY: 9, Seed: 5})
	var obs []Observation
	for i := 0; i < g.NumVertices(); i += 2 {
		o := Observation{Vertex: i, Value: 600 + 400*math.Sin(float64(i)/7)}
		if i%6 == 0 {
			o.Noise = 9e3
		}
		obs = append(obs, o)
	}
	obs = append(obs, Observation{Vertex: 4, Value: 900})
	for _, h := range [][2]float64{{2, 1}, {0.1, 0.1}, {10, 10}, {10, 0.1}, {0.1, 10}} {
		want, err := denseMeanAll(g, h[0], h[1], obs, 2500)
		if err != nil {
			t.Fatal(err)
		}
		got, observed, err := MeanAll(g, h[0], h[1], obs, 2500)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, want, 1); d > meanTolerance {
			t.Errorf("α=%v β=%v: sparse mean differs from dense by %.3g (relative)", h[0], h[1], d)
		}
		if len(observed) != g.NumVertices()/2+g.NumVertices()%2 {
			t.Errorf("α=%v β=%v: %d observed vertices", h[0], h[1], len(observed))
		}
	}
}

// TestVarianceAllMatchesDense holds VarianceAll to Predict's variance on
// the same graph, observations and hyperparameters as
// TestMeanAllMatchesDense, and its bits to the worker count.
func TestVarianceAllMatchesDense(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 12, GridY: 9, Seed: 5})
	var obs []Observation
	for i := 0; i < g.NumVertices(); i += 2 {
		o := Observation{Vertex: i, Value: 600 + 400*math.Sin(float64(i)/7)}
		if i%6 == 0 {
			o.Noise = 9e3
		}
		obs = append(obs, o)
	}
	obs = append(obs, Observation{Vertex: 4, Value: 900})
	for _, h := range [][2]float64{{2, 1}, {0.1, 0.1}, {10, 10}, {10, 0.1}, {0.1, 10}} {
		want, _, err := denseVarianceAll(g, h[0], h[1], obs, 2500)
		if err != nil {
			t.Fatal(err)
		}
		got, err := VarianceAll(g, h[0], h[1], obs, 2500)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxDiff(got, want, 0); d > meanTolerance {
			t.Errorf("α=%v β=%v: sparse variance differs from dense by %.3g (relative)", h[0], h[1], d)
		}
	}
	want, err := VarianceAll(g, 2, 1, obs, 2500)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 3} {
		prev := runtime.GOMAXPROCS(procs)
		got, err := VarianceAll(g, 2, 1, obs, 2500)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		for v := range want {
			if got[v] != want[v] { //lint:allow floateq every solve is serial and fixed-order: the bits must not depend on the worker count
				t.Fatalf("GOMAXPROCS=%d: vertex %d variance %v, want %v", procs, v, got[v], want[v])
			}
		}
	}
}

// TestSolveCapNamesResidual: a solve cut off before convergence is an
// error that names the residual it reached, not a map.
func TestSolveCapNamesResidual(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 12, GridY: 9, Seed: 5})
	n := g.NumVertices()
	work := make([]float64, 5*n)
	a := precision{g: g, beta: 1, reg: 1.0 / 100, w: work[:n]}
	b := work[n : 2*n]
	for v := 0; v < n; v += 3 {
		a.w[v], b[v] = 4, math.Sin(float64(v))
	}
	x := make([]float64, n)
	if err := a.solve(x, b, work[2*n:], 2); err == nil || !strings.Contains(err.Error(), "did not converge in 2 iterations (residual bounds the error at ") {
		t.Fatalf("capped solve: err = %v, want non-convergence naming the residual", err)
	}
}

// TestMeanAll10x: at Profile10x's street graph (7 980 junctions, ~1.2
// observations per junction) the mean satisfies its normal equations
// to the solver's tolerance (10× for this product's own rounding) —
// checked with this test's own product, assembled from Graph.Edges —
// and one call allocates under 1 MB, where the dense kernel alone would
// be 509 MB.
func TestMeanAll10x(t *testing.T) {
	if testing.Short() {
		t.Skip("10× street graph")
	}
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 114, GridY: 70, Seed: 42})
	n := g.NumVertices()
	if n != 7980 {
		t.Fatalf("10× graph has %d vertices, want 7980", n)
	}
	const alpha, beta, noiseVar, crowdNoise = 2.0, 1.0, 2500.0, 1e4
	rng := rand.New(rand.NewSource(42))
	obs := make([]Observation, 6*n/5)
	for i := range obs {
		obs[i] = Observation{Vertex: rng.Intn(n), Value: 250 + 1000*rng.Float64()}
		if i%4 == 0 {
			obs[i].Noise = crowdNoise
		}
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mean, observed, err := MeanAll(g, alpha, beta, obs, noiseVar)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if heap := after.TotalAlloc - before.TotalAlloc; heap >= 1<<20 {
		t.Errorf("MeanAll allocated %d bytes on %d vertices, budget 1 MB", heap, n)
	}

	// Standardization, recomputed: inverse-variance combination per
	// vertex, then the empirical mean and std of the combined values.
	wsum := make([]float64, n)
	psum := make([]float64, n)
	for _, o := range obs {
		nv := o.Noise
		if nv == 0 {
			nv = noiseVar
		}
		wsum[o.Vertex] += o.Value / nv
		psum[o.Vertex] += 1 / nv
	}
	var mu, s2 float64
	for _, v := range observed {
		mu += wsum[v] / psum[v]
	}
	mu /= float64(len(observed))
	for _, v := range observed {
		d := wsum[v]/psum[v] - mu
		s2 += d * d
	}
	s := math.Sqrt(s2 / float64(len(observed)))

	// (β(L + I/α²) + HᵀD⁻¹H) x = HᵀD⁻¹ỹ with D⁻¹ = s²·(Σ 1/σ²).
	x := make([]float64, n)
	for v, m := range mean {
		x[v] = (m - mu) / s
	}
	ax := make([]float64, n)
	diag := make([]float64, n)
	for v := range ax {
		diag[v] = beta/(alpha*alpha) + s*s*psum[v]
		ax[v] = diag[v] * x[v]
	}
	for _, e := range g.Edges() {
		ax[e.A] += beta * (x[e.A] - x[e.B])
		ax[e.B] += beta * (x[e.B] - x[e.A])
		diag[e.A] += beta
		diag[e.B] += beta
	}
	// The error bound the residual implies, as the solver states it:
	// ‖M⁻¹r‖∞ / (1 − max_v β·deg_v/A_vv), relative to ‖x‖∞.
	var zmax, xmax, offDiag float64
	for v := range ax {
		var b float64
		if psum[v] > 0 {
			b = s * psum[v] * (wsum[v]/psum[v] - mu)
		}
		zmax = math.Max(zmax, math.Abs(b-ax[v])/diag[v])
		xmax = math.Max(xmax, math.Abs(x[v]))
		offDiag = math.Max(offDiag, beta*float64(g.Degree(v))/diag[v])
	}
	if bound := zmax / (1 - offDiag) / xmax; !(bound <= 10*cgTolerance) {
		t.Errorf("normal-equation residual bounds the error at %.3g relative to the mean, solver tolerance %g", bound, cgTolerance)
	} else {
		t.Logf("normal-equation residual bounds the error at %.3g on %d vertices, %d observed", bound, n, len(observed))
	}
}

// TestAllocBudget_MeanAll: the information-form mean allocates a
// constant number of slices per call — the standardization's four and
// the solver's two — whatever the graph or observation count.
func TestAllocBudget_MeanAll(t *testing.T) {
	counts := make([]float64, 0, 2)
	for _, g := range []*citygraph.Graph{
		citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 8, GridY: 7, Seed: 2}),
		benchGraph512(),
	} {
		obs := benchObservations(g, 2)
		counts = append(counts, testing.AllocsPerRun(5, func() {
			if _, _, err := MeanAll(g, 2, 1, obs, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	const budget = 6
	if counts[0] != counts[1] || counts[1] > budget { //lint:allow floateq allocation counts are integers
		t.Errorf("MeanAll allocates %v objects on the small graph and %v on the 520-vertex one, want equal and ≤ %d", counts[0], counts[1], budget)
	}
}

// TestAllocBudget_VarianceAll: the per-vertex solves allocate nothing —
// the call allocates MeanAll's slices plus a constant per worker,
// whatever the graph size. The count depends on neither the
// hyperparameters nor the observations; a precise reading at every
// vertex makes each solve a few iterations.
func TestAllocBudget_VarianceAll(t *testing.T) {
	counts := make([]float64, 0, 2)
	for _, g := range []*citygraph.Graph{
		citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 8, GridY: 7, Seed: 2}),
		benchGraph512(),
	} {
		obs := benchObservations(g, 1)
		counts = append(counts, testing.AllocsPerRun(1, func() {
			if _, err := VarianceAll(g, 2, 1, obs, 1); err != nil {
				t.Fatal(err)
			}
		}))
	}
	budget := 10 + 2*runtime.GOMAXPROCS(0)
	if counts[0] != counts[1] || counts[1] > float64(budget) { //lint:allow floateq allocation counts are integers
		t.Errorf("VarianceAll allocates %v objects on the small graph and %v on the 520-vertex one, want equal and ≤ %d", counts[0], counts[1], budget)
	}
}
