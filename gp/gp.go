// Package gp implements the traffic modelling component of Artikis et
// al. (EDBT 2014, Section 6): Gaussian Process regression over the
// city street graph, used to estimate traffic flow at locations with
// low or non-existent sensor coverage (the data sparsity problem).
//
// The latent traffic flow f_i at each junction follows a GP whose
// covariance is a graph kernel; observed flows are the latent values
// plus Gaussian noise, y_i = f_i + ε_i with ε_i ~ N(0, σ²). Lacking
// information on preferred routes, the paper opts for the commonly
// used regularized Laplacian kernel
//
//	K = [β(L + I/α²)]⁻¹
//
// where L = D − A is the combinatorial Laplacian of the street graph
// and α, β are hyperparameters chosen by grid search within [0, 10].
// The predictive distribution at unobserved junctions ū given
// observations y at junctions u is Gaussian with
//
//	m = K_{ū,u}(K_{u,u} + σ²I)⁻¹ y
//	Σ = K_{ū,ū} − K_{ū,u}(K_{u,u} + σ²I)⁻¹ K_{u,ū}
//
// For the regularized Laplacian nothing forms K: MeanAll (the flow map,
// the grid search) and VarianceAll (Figure 9's uncertainty map) solve
// against the sparse precision β(L + I/α²) (precision.go). The dense
// Kernel, Fit and Predict remain for kernels other than the regularized
// Laplacian and as the sparse solves' test oracle.
package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/internal/linalg"
)

// Observation is a reading mapped onto a graph vertex: the aggregated
// traffic flow measured (or inferred) at junction Vertex.
//
// Noise optionally overrides the model-wide observation noise variance
// for this observation (0 means "use the default"). Heterogeneous
// noise lets sources of different trust feed the same model — the
// paper notes that "any additional sources that can provide congestion
// information at specific locations can be incorporated in the
// training, including, specifically, the results of the crowdsourcing
// component" (Section 6); crowd-derived pseudo-readings simply carry a
// larger variance than SCATS detectors.
type Observation struct {
	Vertex int
	Value  float64
	Noise  float64
}

// Kernel is a precomputed dense graph kernel over all vertices of a
// street graph: n² floats, against which fitting and predicting are
// dense algebra.
type Kernel struct {
	k *linalg.Matrix
}

// checkModel validates what both the dense kernel and the sparse
// precision are built from: a non-empty graph, and α, β positive and
// finite with a positive, finite regularizer β/α². α = 0 makes the
// regularizer infinite, β = 0 the kernel unbounded, and an α so large
// that 1/α² rounds to 0 (+Inf included) leaves the singular Laplacian —
// which a factorization may not notice and the sparse solve has none.
func checkModel(g *citygraph.Graph, alpha, beta float64) error {
	if g == nil || g.NumVertices() == 0 {
		return fmt.Errorf("gp: empty graph")
	}
	reg := beta / (alpha * alpha)
	if !(alpha > 0) || math.IsInf(alpha, 0) || !(beta > 0) || math.IsInf(beta, 0) || !(reg > 0) || math.IsInf(reg, 0) {
		return fmt.Errorf("gp: hyperparameters must be positive and finite with a finite, positive β/α² (alpha=%v, beta=%v)", alpha, beta)
	}
	return nil
}

// RegularizedLaplacian builds K = [β(L + I/α²)]⁻¹ for the graph; see
// checkModel for the hyperparameters it accepts.
func RegularizedLaplacian(g *citygraph.Graph, alpha, beta float64) (*Kernel, error) {
	if err := checkModel(g, alpha, beta); err != nil {
		return nil, err
	}
	l := laplacian(g)
	l.AddDiag(1 / (alpha * alpha))
	inv, err := linalg.InverseSPD(l.Scale(beta))
	if err != nil {
		return nil, fmt.Errorf("gp: kernel inversion: %w", err)
	}
	return &Kernel{k: inv}, nil
}

// NumVertices returns the kernel dimension.
func (k *Kernel) NumVertices() int { return k.k.Rows }

// At returns the covariance k(x_i, x_j).
func (k *Kernel) At(i, j int) float64 { return k.k.At(i, j) }

// Regression is a GP fitted to observations. Build with Fit.
type Regression struct {
	kernel   *Kernel
	observed []int     // u: observed vertex indexes
	alphaVec []float64 // (K_{u,u} + σ̃²I)⁻¹ ỹ in standardized units
	chol     *linalg.Cholesky
	mean     float64 // empirical mean subtracted from y (paper assumes zero mean)
	scale    float64 // empirical std dividing y, so the kernel's O(1) scale fits
}

// Fit conditions the GP on the observations. noiseVar is σ², the
// observation noise variance in the units of the observations; it must
// be positive (a zero-noise GP on a singular kernel block is
// numerically fragile and physically implausible for traffic counts).
// Duplicate observations of the same vertex are averaged.
//
// Observations are standardized internally (the paper assumes a
// zero-mean GP; standardization additionally reconciles the O(1) scale
// of the regularized Laplacian kernel with arbitrary measurement
// units, so the β ∈ [0, 10] grid of the paper stays meaningful for
// vehicle-per-hour flows). Predictions are mapped back to the original
// units.
func Fit(k *Kernel, obs []Observation, noiseVar float64) (*Regression, error) {
	if k == nil {
		return nil, fmt.Errorf("gp: nil kernel")
	}
	st, err := standardize(k.NumVertices(), obs, noiseVar)
	if err != nil {
		return nil, err
	}
	kuu := k.k.Submatrix(st.observed, st.observed)
	for i, nv := range st.noise {
		kuu.Add(i, i, nv/(st.scale*st.scale))
	}
	chol, err := linalg.NewCholesky(kuu)
	if err != nil {
		return nil, fmt.Errorf("gp: observed-block factorization: %w", err)
	}
	return &Regression{
		kernel:   k,
		observed: st.observed,
		alphaVec: chol.SolveVec(st.y),
		chol:     chol,
		mean:     st.mean,
		scale:    st.scale,
	}, nil
}

// standardized is a set of observations as both paths condition on
// them: validated, duplicates combined, values standardized.
type standardized struct {
	observed []int     // distinct observed vertices, sorted
	y        []float64 // combined value per observed vertex, standardized
	noise    []float64 // combined noise variance per observed vertex, in the observations' units
	mean     float64   // empirical mean subtracted from y (the paper assumes zero mean)
	scale    float64   // empirical std dividing y, so the kernel's O(1) scale fits
}

// standardize validates observations of an n-vertex graph — indexes,
// values and per-observation noises: one non-finite reading would turn
// every estimate into NaN without an error — combines duplicate
// observations of a vertex by inverse-variance weighting (plain
// averaging when all noises are equal) and standardizes the combined
// values. It allocates a constant number of slices whatever the
// observation count.
func standardize(n int, obs []Observation, noiseVar float64) (standardized, error) {
	if len(obs) == 0 {
		return standardized{}, fmt.Errorf("gp: no observations")
	}
	if !(noiseVar > 0) || math.IsInf(noiseVar, 0) {
		return standardized{}, fmt.Errorf("gp: noise variance must be positive and finite, got %v", noiseVar)
	}
	// Per vertex Σ v/σ² and Σ 1/σ², accumulated in observation order.
	sums := make([]float64, 2*n)
	weighted, prec := sums[:n], sums[n:]
	distinct := 0
	for _, o := range obs {
		if o.Vertex < 0 || o.Vertex >= n {
			return standardized{}, fmt.Errorf("gp: observation vertex %d out of range [0, %d)", o.Vertex, n) //lint:allow hotalloc cold path: the error ends the call
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return standardized{}, fmt.Errorf("gp: non-finite observation value %v at vertex %d", o.Value, o.Vertex) //lint:allow hotalloc cold path: the error ends the call
		}
		ov := o.Noise
		if ov == 0 {
			ov = noiseVar
		}
		if !(ov > 0) || math.IsInf(ov, 0) {
			return standardized{}, fmt.Errorf("gp: observation noise must be positive and finite, got %v at vertex %d", ov, o.Vertex) //lint:allow hotalloc cold path: the error ends the call
		}
		if prec[o.Vertex] == 0 {
			distinct++
		}
		weighted[o.Vertex] += o.Value / ov
		prec[o.Vertex] += 1 / ov
	}
	st := standardized{
		observed: make([]int, distinct),
		y:        make([]float64, distinct),
		noise:    make([]float64, distinct),
	}
	i := 0
	for v, p := range prec {
		if p > 0 {
			st.observed[i], st.y[i], st.noise[i] = v, weighted[v]/p, 1/p
			st.mean += st.y[i]
			i++
		}
	}
	st.mean /= float64(distinct)
	var variance float64
	for i := range st.y {
		st.y[i] -= st.mean
		variance += st.y[i] * st.y[i]
	}
	variance /= float64(distinct)
	st.scale = math.Sqrt(variance)
	if math.IsNaN(st.scale) || math.IsInf(st.scale, 0) {
		return standardized{}, fmt.Errorf("gp: observations overflow on standardization (mean %v, variance %v)", st.mean, variance)
	}
	if st.scale < 1e-12 {
		st.scale = 1 // constant observations: keep units as-is
	}
	for i := range st.y {
		st.y[i] /= st.scale
	}
	return st, nil
}

// Observed returns the observed vertex indexes, sorted.
func (r *Regression) Observed() []int { return r.observed }

// crossCov gathers K_{V,u}, one contiguous row per requested vertex.
func (r *Regression) crossCov(vertices []int) (*linalg.Matrix, error) {
	n := r.kernel.NumVertices()
	for _, v := range vertices {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("gp: vertex %d out of range [0, %d)", v, n) //lint:allow hotalloc cold path: the error ends the call
		}
	}
	return r.kernel.k.Submatrix(vertices, r.observed), nil
}

// meanFrom maps K_{V,u} to the predictive mean in the observations'
// units: one matrix–vector product with alphaVec, then the affine map
// that undoes the standardization.
func (r *Regression) meanFrom(cross *linalg.Matrix) []float64 {
	mean := cross.MulVec(r.alphaVec)
	for i, m := range mean {
		mean[i] = r.mean + r.scale*m
	}
	return mean
}

// Mean returns the predictive mean at the given vertices. It costs one
// gather and one matrix–vector product, O(|V|·|u|); the variance, which
// needs a triangular solve per vertex, is Predict's.
func (r *Regression) Mean(vertices []int) ([]float64, error) {
	cross, err := r.crossCov(vertices)
	if err != nil {
		return nil, err
	}
	return r.meanFrom(cross), nil
}

// Predict returns the predictive mean and variance at the given
// vertices. The mean is Mean's; the variance adds one forward and one
// backward substitution per vertex, O(|V|·|u|²) — callers that only
// read the mean should call Mean.
func (r *Regression) Predict(vertices []int) (mean, variance []float64, err error) {
	cross, err := r.crossCov(vertices)
	if err != nil {
		return nil, nil, err
	}
	mean = r.meanFrom(cross)
	variance = make([]float64, len(vertices))
	nu := len(r.observed)
	for i, v := range vertices {
		row := cross.Data[i*nu : (i+1)*nu]
		sol := r.chol.SolveVec(row)
		variance[i] = (r.kernel.At(v, v) - linalg.Dot(row, sol)) * r.scale * r.scale
		if variance[i] < 0 {
			variance[i] = 0 // numerical floor
		}
	}
	return mean, variance, nil
}

// PredictAll returns the predictive mean at every vertex of the graph
// (the city-wide flow picture of Figure 9).
func (r *Regression) PredictAll() ([]float64, error) {
	vertices := make([]int, r.kernel.NumVertices())
	for i := range vertices {
		vertices[i] = i
	}
	return r.Mean(vertices)
}

// GridSearchResult is the outcome of a hyperparameter search.
type GridSearchResult struct {
	Alpha, Beta float64
	// RMSE is the cross-validated root mean squared error at the
	// chosen hyperparameters.
	RMSE float64
	// Evaluated counts the (α, β) pairs scored.
	Evaluated int
}

// SearchOptions tune GridSearchWith.
type SearchOptions struct {
	// Workers bounds the goroutines used for the (α, β, fold) work
	// units. 0 means GOMAXPROCS; 1 is fully serial. The result is
	// bit-identical for every Workers value: work units are independent
	// and the best-(α, β) reduction is a serial scan in grid order.
	Workers int
}

// GridSearch chooses (α, β) by k-fold cross-validation of the
// predictive mean over the observations, mirroring the paper's
// "hyperparameters are chosen in advance using grid search within the
// interval [0, …, 10]" (zero itself is excluded: the kernel is
// undefined there), with the default parallelism.
func GridSearch(g *citygraph.Graph, obs []Observation, alphas, betas []float64, noiseVar float64, folds int, seed int64) (GridSearchResult, error) {
	return GridSearchWith(g, obs, alphas, betas, noiseVar, folds, seed, SearchOptions{})
}

// GridSearchWith is GridSearch with explicit options. Each (α, β,
// fold) unit scores its fold's held-out observations against one
// information-form solve on the fold's training observations (MeanAll:
// no kernel is built, so no Laplacian is inverted); fold partitions are
// materialized once up front, and the units fan out over the workers.
// Ties on RMSE resolve to the earliest (α, β) in grid order,
// independent of scheduling.
func GridSearchWith(g *citygraph.Graph, obs []Observation, alphas, betas []float64, noiseVar float64, folds int, seed int64, opt SearchOptions) (GridSearchResult, error) {
	if len(alphas) == 0 || len(betas) == 0 {
		return GridSearchResult{}, fmt.Errorf("gp: empty hyperparameter grid")
	}
	if folds < 2 {
		return GridSearchResult{}, fmt.Errorf("gp: need at least 2 folds, got %d", folds)
	}
	if len(obs) < folds {
		return GridSearchResult{}, fmt.Errorf("gp: %d observations cannot fill %d folds", len(obs), folds)
	}
	// Every held-out vertex indexes a mean: validate all observations
	// before any unit reads one.
	if g == nil || g.NumVertices() == 0 {
		return GridSearchResult{}, fmt.Errorf("gp: empty graph")
	}
	if _, err := standardize(g.NumVertices(), obs, noiseVar); err != nil {
		return GridSearchResult{}, err
	}
	perm := rand.New(rand.NewSource(seed)).Perm(len(obs))
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Fold partitions, once. Fold f tests the observations at positions
	// i ≡ f (mod folds) of the permutation and trains on the rest —
	// identical to the seed's per-triple rebuild.
	train := make([][]Observation, folds)
	test := make([][]Observation, folds)
	for f := 0; f < folds; f++ {
		for i, pi := range perm {
			if i%folds == f {
				test[f] = append(test[f], obs[pi])
			} else {
				train[f] = append(train[f], obs[pi])
			}
		}
	}

	// Cross-validation over independent (α, β, fold) units, unit u =
	// (ai·len(betas) + bi)·folds + f writing only its own cell.
	sqErr := make([]float64, len(alphas)*len(betas)*folds)
	unitErr := make([]error, len(sqErr))
	parallelFor(workers, len(sqErr), func(u int) {
		ab, f := u/folds, u%folds
		mean, _, err := MeanAll(g, alphas[ab/len(betas)], betas[ab%len(betas)], train[f], noiseVar)
		if err != nil {
			unitErr[u] = err
			return
		}
		for _, o := range test[f] {
			d := mean[o.Vertex] - o.Value
			sqErr[u] += d * d
		}
	})
	for _, err := range unitErr {
		if err != nil {
			return GridSearchResult{}, err
		}
	}

	// Serial reduction in grid order: deterministic sums and a strict-<
	// comparison make the winner independent of scheduling, with ties
	// going to the earliest grid point. Every fold is scored once per
	// grid point, so the squared errors are over all observations.
	best := GridSearchResult{RMSE: math.Inf(1)}
	for ai, a := range alphas {
		for bi, b := range betas {
			var sum float64
			for f := 0; f < folds; f++ {
				sum += sqErr[(ai*len(betas)+bi)*folds+f]
			}
			rmse := math.Sqrt(sum / float64(len(obs)))
			best.Evaluated++
			if rmse < best.RMSE {
				best.Alpha, best.Beta, best.RMSE = a, b, rmse
			}
		}
	}
	return best, nil
}

// parallelFor runs fn(i) for every i in [0, n) on up to workers
// goroutines. Tasks are claimed from an atomic counter, so scheduling
// is dynamic but outputs stay deterministic as long as distinct tasks
// write disjoint data. workers <= 1 (or n <= 1) runs inline with no
// goroutines at all.
func parallelFor(workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	workers = min(workers, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// DefaultGrid returns the paper's [0, 10] search interval sampled at
// the given number of points per axis, excluding zero.
func DefaultGrid(points int) []float64 {
	if points <= 0 {
		points = 5
	}
	out := make([]float64, points)
	for i := range out {
		out[i] = 10 * float64(i+1) / float64(points)
	}
	return out
}
