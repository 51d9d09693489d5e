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
package gp

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

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

// Kernel is a precomputed graph kernel over all vertices of a street
// graph. Building it costs one SPD inversion (O(n³)); fitting and
// predicting against it are then cheap, and the β hyperparameter is a
// pure scaling that needs no recomputation: Rescale returns a view
// that shares the matrix and folds the factor into every access.
type Kernel struct {
	k     *linalg.Matrix
	scale float64 // multiplies every entry of k; 1 for a freshly built kernel
	n     int
}

// RegularizedLaplacian builds K = [β(L + I/α²)]⁻¹ for the graph.
// Both hyperparameters must be positive: α = 0 makes the regularizer
// infinite and β = 0 makes the kernel unbounded.
func RegularizedLaplacian(g *citygraph.Graph, alpha, beta float64) (*Kernel, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("gp: empty graph")
	}
	if alpha <= 0 || beta <= 0 {
		return nil, fmt.Errorf("gp: hyperparameters must be positive (alpha=%v, beta=%v)", alpha, beta)
	}
	l := g.Laplacian()
	l.AddDiag(1 / (alpha * alpha))
	inv, err := linalg.InverseSPD(l.Scale(beta))
	if err != nil {
		return nil, fmt.Errorf("gp: kernel inversion: %w", err)
	}
	return &Kernel{k: inv, scale: 1, n: g.NumVertices()}, nil
}

// NumVertices returns the kernel dimension.
func (k *Kernel) NumVertices() int { return k.n }

// At returns the covariance k(x_i, x_j).
func (k *Kernel) At(i, j int) float64 { return k.scale * k.k.At(i, j) }

// Rescale returns a view of the kernel with β multiplied by factor
// (K' = K / factor), without re-inverting the Laplacian. The view
// shares the underlying matrix — O(1) instead of the O(n²) clone the
// seed paid per β — which is what lets GridSearch sweep β for free.
func (k *Kernel) Rescale(factor float64) (*Kernel, error) {
	if factor <= 0 {
		return nil, fmt.Errorf("gp: rescale factor must be positive, got %v", factor)
	}
	return &Kernel{k: k.k, scale: k.scale / factor, n: k.n}, nil
}

// Regression is a GP fitted to observations. Build with Fit.
type Regression struct {
	kernel   *Kernel
	observed []int     // u: observed vertex indexes
	alphaVec []float64 // (K_{u,u} + σ̃²I)⁻¹ ỹ in standardized units
	chol     *linalg.Cholesky
	mean     float64 // empirical mean subtracted from y (paper assumes zero mean)
	scale    float64 // empirical std dividing y, so the kernel's O(1) scale fits
	noise    float64 // σ² in original units
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
	if len(obs) == 0 {
		return nil, fmt.Errorf("gp: no observations")
	}
	if !(noiseVar > 0) || math.IsInf(noiseVar, 0) {
		return nil, fmt.Errorf("gp: noise variance must be positive and finite, got %v", noiseVar)
	}
	// Combine duplicate observations of a vertex by inverse-variance
	// weighting (plain averaging when all noises are equal), validate
	// indexes, values and per-observation noises: one non-finite reading
	// would turn every estimate into NaN without an error.
	type accum struct {
		weighted  float64 // Σ v/σ²
		precision float64 // Σ 1/σ²
	}
	sums := make(map[int]*accum)
	for _, o := range obs {
		if o.Vertex < 0 || o.Vertex >= k.n {
			return nil, fmt.Errorf("gp: observation vertex %d out of range [0, %d)", o.Vertex, k.n)
		}
		if math.IsNaN(o.Value) || math.IsInf(o.Value, 0) {
			return nil, fmt.Errorf("gp: non-finite observation value %v at vertex %d", o.Value, o.Vertex)
		}
		ov := o.Noise
		if ov == 0 {
			ov = noiseVar
		}
		if !(ov > 0) || math.IsInf(ov, 0) {
			return nil, fmt.Errorf("gp: observation noise must be positive and finite, got %v at vertex %d", ov, o.Vertex)
		}
		a := sums[o.Vertex]
		if a == nil {
			a = &accum{}
			sums[o.Vertex] = a
		}
		a.weighted += o.Value / ov
		a.precision += 1 / ov
	}
	observed := make([]int, 0, len(sums))
	for v := range sums {
		observed = append(observed, v)
	}
	// Deterministic order.
	sort.Ints(observed)
	y := make([]float64, len(observed))
	noises := make([]float64, len(observed))
	var mean float64
	for i, v := range observed {
		a := sums[v]
		y[i] = a.weighted / a.precision
		noises[i] = 1 / a.precision
		mean += y[i]
	}
	mean /= float64(len(y))
	var variance float64
	for i := range y {
		y[i] -= mean
		variance += y[i] * y[i]
	}
	variance /= float64(len(y))
	scale := math.Sqrt(variance)
	if math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, fmt.Errorf("gp: observations overflow on standardization (mean %v, variance %v)", mean, variance)
	}
	if scale < 1e-12 {
		scale = 1 // constant observations: keep units as-is
	}
	for i := range y {
		y[i] /= scale
	}

	kuu := k.k.Submatrix(observed, observed)
	if k.scale != 1 { //lint:allow floateq exact sentinel: Rescale sets 1 literally, meaning "no rescale applied"
		kuu.Scale(k.scale)
	}
	for i, nv := range noises {
		kuu.Add(i, i, nv/(scale*scale))
	}
	chol, err := linalg.NewCholesky(kuu)
	if err != nil {
		return nil, fmt.Errorf("gp: observed-block factorization: %w", err)
	}
	return &Regression{
		kernel:   k,
		observed: observed,
		alphaVec: chol.SolveVec(y),
		chol:     chol,
		mean:     mean,
		scale:    scale,
		noise:    noiseVar,
	}, nil
}

// Observed returns the observed vertex indexes, sorted.
func (r *Regression) Observed() []int { return r.observed }

// crossCov gathers K_{V,u}, one contiguous row per requested vertex, in
// the kernel matrix's own units (Kernel.scale is not applied: callers
// fold it into one scalar after their products).
func (r *Regression) crossCov(vertices []int) (*linalg.Matrix, error) {
	for _, v := range vertices {
		if v < 0 || v >= r.kernel.n {
			return nil, fmt.Errorf("gp: vertex %d out of range [0, %d)", v, r.kernel.n) //lint:allow hotalloc cold path: the error ends the call
		}
	}
	return r.kernel.k.Submatrix(vertices, r.observed), nil
}

// meanFrom maps K_{V,u} to the predictive mean in the observations'
// units: one matrix–vector product with alphaVec, then one affine map
// that undoes the kernel scale and the standardization together.
func (r *Regression) meanFrom(cross *linalg.Matrix) []float64 {
	mean := cross.MulVec(r.alphaVec)
	f := r.scale * r.kernel.scale
	for i, m := range mean {
		mean[i] = r.mean + f*m
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
	ks, nu := r.kernel.scale, len(r.observed)
	for i, v := range vertices {
		row := cross.Data[i*nu : (i+1)*nu]
		sol := r.chol.SolveVec(row)
		variance[i] = (r.kernel.At(v, v) - ks*ks*linalg.Dot(row, sol)) * r.scale * r.scale
		if variance[i] < 0 {
			variance[i] = 0 // numerical floor
		}
	}
	return mean, variance, nil
}

// PredictAll returns the predictive mean at every vertex of the graph
// (the city-wide flow picture of Figure 9).
func (r *Regression) PredictAll() ([]float64, error) {
	vertices := make([]int, r.kernel.n)
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
	// Workers bounds the goroutines used for the (α, fold) work units
	// (and the per-α kernel builds). 0 means GOMAXPROCS; 1 is fully
	// serial. The result is bit-identical for every Workers value:
	// work units are independent and the best-(α, β) reduction is a
	// serial scan in grid order.
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

// GridSearchWith is GridSearch with explicit options. The Laplacian is
// inverted once per α (the O(n³) part, run in parallel across the α
// grid); β values reuse it through O(1) rescale views; fold partitions
// are materialized once up front (the seed rebuilt them for every
// (α, β, fold) triple); and cross-validation fans out over (α, fold)
// work units. Ties on RMSE resolve to the earliest (α, β) in grid
// order, independent of scheduling.
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

	// One Laplacian inversion per α, in parallel.
	bases := make([]*Kernel, len(alphas))
	baseErr := make([]error, len(alphas))
	linalg.ParallelFor(workers, len(alphas), func(ai int) {
		bases[ai], baseErr[ai] = RegularizedLaplacian(g, alphas[ai], 1)
	})
	for _, err := range baseErr {
		if err != nil {
			return GridSearchResult{}, err
		}
	}

	// Cross-validation over independent (α, fold) units; each unit
	// scores every β against its fold, writing only its own cells.
	type cell struct {
		sqErr float64
		count int
	}
	partial := make([][][]cell, len(alphas)) // [α][fold][β]
	unitErr := make([][]error, len(alphas))
	for ai := range alphas {
		partial[ai] = make([][]cell, folds)
		unitErr[ai] = make([]error, folds)
	}
	linalg.ParallelFor(workers, len(alphas)*folds, func(u int) {
		ai, f := u/folds, u%folds
		scores := make([]cell, len(betas))
		vertices := make([]int, len(test[f]))
		for i, o := range test[f] {
			vertices[i] = o.Vertex
		}
		for bi, b := range betas {
			k, err := bases[ai].Rescale(b)
			if err != nil {
				unitErr[ai][f] = err
				return
			}
			reg, err := Fit(k, train[f], noiseVar)
			if err != nil {
				unitErr[ai][f] = err
				return
			}
			mean, err := reg.Mean(vertices)
			if err != nil {
				unitErr[ai][f] = err
				return
			}
			for i, o := range test[f] {
				d := mean[i] - o.Value
				scores[bi].sqErr += d * d
				scores[bi].count++
			}
		}
		partial[ai][f] = scores
	})
	for ai := range alphas {
		for f := 0; f < folds; f++ {
			if err := unitErr[ai][f]; err != nil {
				return GridSearchResult{}, err
			}
		}
	}

	// Serial reduction in grid order: deterministic sums and a strict-<
	// comparison make the winner independent of scheduling, with ties
	// going to the earliest grid point.
	best := GridSearchResult{RMSE: math.Inf(1)}
	for ai, a := range alphas {
		for bi, b := range betas {
			var sqErr float64
			var count int
			for f := 0; f < folds; f++ {
				sqErr += partial[ai][f][bi].sqErr
				count += partial[ai][f][bi].count
			}
			rmse := math.Sqrt(sqErr / float64(count))
			best.Evaluated++
			if rmse < best.RMSE {
				best.Alpha, best.Beta, best.RMSE = a, b, rmse
			}
		}
	}
	return best, nil
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
