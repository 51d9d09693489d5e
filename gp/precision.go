package gp

import (
	"fmt"
	"math"
	"runtime"

	"github.com/insight-dublin/insight/citygraph"
)

// The posterior mean in information form. The kernel's inverse is the
// precision Q = β(L + I/α²), as sparse as the street graph, and the
// identity
//
//	K Hᵀ (H K Hᵀ + D)⁻¹ = (K⁻¹ + Hᵀ D⁻¹ H)⁻¹ Hᵀ D⁻¹
//
// turns Fit + PredictAll's dense algebra into one sparse SPD solve
//
//	(Q + Hᵀ D⁻¹ H) μ = Hᵀ D⁻¹ ỹ
//
// where H selects the observed vertices, D holds their combined
// standardized noises and ỹ their standardized values. The system
// matrix is Q with D⁻¹ added on the observed diagonal: a diagonally
// dominant M-matrix whose Jacobi-scaled condition number is bounded by
// the degrees and α, not by β or the noises, so Jacobi-preconditioned
// conjugate gradients converge in a few dozen iterations (~25 on the
// 792-junction city, ~35 on the 7 980-junction one). Each iteration is
// O(edges) over the adjacency lists and the whole solve O(n) memory,
// where the dense kernel costs an O(n³) inversion and n² floats.

// The solver's stopping rule and cap: the bound on the error that the
// residual implies, relative to the solution in the max norm (solve).
const (
	cgTolerance     = 1e-12
	cgMaxIterations = 1000
)

// MeanAll returns the GP posterior mean at every vertex of g under the
// regularized Laplacian kernel K = [β(L + I/α²)]⁻¹ conditioned on obs —
// what Fit(RegularizedLaplacian(g, α, β), obs, noiseVar) followed by
// PredictAll returns, to the solver's tolerance — and the observed
// vertices, sorted. Hyperparameters are checked as RegularizedLaplacian
// checks them and observations validated, combined and standardized as
// Fit does them; the mean is mapped back to the observations' units.
// K is never formed: the call allocates a constant number of O(n)
// slices. A solve that does not converge within the iteration cap is an
// error naming the residual it reached, never an inaccurate map.
func MeanAll(g *citygraph.Graph, alpha, beta float64, obs []Observation, noiseVar float64) (mean []float64, observed []int, err error) {
	a, st, work, err := system(g, alpha, beta, obs, noiseVar, 4)
	if err != nil {
		return nil, nil, err
	}
	n := len(a.w)
	b := work[:n]
	for i, v := range st.observed {
		b[v] = a.w[v] * st.y[i]
	}
	mean = make([]float64, n)
	if err := a.solve(mean, b, work[n:], cgMaxIterations); err != nil {
		return nil, nil, err
	}
	for i, m := range mean {
		mean[i] = st.mean + st.scale*m
	}
	return mean, st.observed, nil
}

// VarianceAll returns the GP posterior variance at every vertex of g
// under the model MeanAll solves — the variance Predict returns over
// every vertex after Fit(RegularizedLaplacian(g, α, β), obs, noiseVar),
// to the solver's tolerance — in the observations' units squared,
// validating its inputs as MeanAll does. The posterior covariance in
// standardized units is the inverse of MeanAll's system matrix,
// (Q + HᵀD⁻¹H)⁻¹, so the variance at v is one solve against the unit
// vector e_v read at v, times the squared standardization scale. The n
// solves fan out over GOMAXPROCS workers with one scratch block each,
// carved from one allocation: nothing is allocated per vertex. Every
// solve is serial and fixed-order, so the result does not depend on the
// worker count. The system matrix is a diagonally dominant M-matrix,
// whose inverse is largest on the diagonal of each column, so the
// stopping rule — relative to ‖x‖∞ — bounds the error of x_v itself.
func VarianceAll(g *citygraph.Graph, alpha, beta float64, obs []Observation, noiseVar float64) ([]float64, error) {
	workers := runtime.GOMAXPROCS(0)
	a, st, work, err := system(g, alpha, beta, obs, noiseVar, 5*workers)
	if err != nil {
		return nil, err
	}
	n := len(a.w)
	s2 := st.scale * st.scale
	variance := make([]float64, n)
	errs := make([]error, workers)
	parallelFor(workers, workers, func(w int) {
		own := work[5*w*n : 5*(w+1)*n]
		x, b, scratch := own[:n], own[n:2*n], own[2*n:]
		for v := w; v < n; v += workers {
			clear(b)
			b[v] = 1
			if err := a.solve(x, b, scratch, cgMaxIterations); err != nil {
				errs[w] = err
				return
			}
			variance[v] = x[v] * s2
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return variance, nil
}

// system validates a model and its observations as MeanAll documents
// and returns the information-form system matrix, the standardized
// observations it was built from and k·n floats of zeroed scratch — the
// matrix's observation weights and the scratch one allocation.
func system(g *citygraph.Graph, alpha, beta float64, obs []Observation, noiseVar float64, k int) (precision, standardized, []float64, error) {
	if err := checkModel(g, alpha, beta); err != nil {
		return precision{}, standardized{}, nil, err
	}
	n := g.NumVertices()
	st, err := standardize(n, obs, noiseVar)
	if err != nil {
		return precision{}, standardized{}, nil, err
	}
	work := make([]float64, (1+k)*n)
	a := precision{g: g, beta: beta, reg: beta / (alpha * alpha), w: work[:n]}
	for i, v := range st.observed {
		a.w[v] = st.scale * st.scale / st.noise[i]
	}
	return a, st, work[n:], nil
}

// precision is the information-form system matrix
// A = Q + HᵀD⁻¹H = β·L + (β/α²)·I + diag(w), applied through the
// graph's adjacency lists; w is D⁻¹ on observed vertices, 0 elsewhere.
type precision struct {
	g    *citygraph.Graph
	beta float64   // β
	reg  float64   // β/α²
	w    []float64 // observation precision per vertex
}

// mulDot sets out = A·x and returns xᵀA·x, in one pass in vertex order.
func (a *precision) mulDot(out, x []float64) float64 {
	var xax float64
	for i, xi := range x {
		nb := a.g.Neighbors(i)
		s := float64(len(nb)) * xi
		for _, j := range nb {
			s -= x[j]
		}
		out[i] = a.beta*s + (a.reg+a.w[i])*xi
		xax += xi * out[i]
	}
	return xax
}

// solve runs Jacobi-preconditioned conjugate gradients on A·x = b from
// x = 0, serially and in a fixed order, so x is bit-stable from run to
// run. b is overwritten (it becomes the residual); scratch holds at
// least 3·len(b) floats.
//
// The stopping rule bounds the error, not just the residual. With
// M = diag(A), M⁻¹A = I − N where N holds β/A_ii at each edge, so
// ‖N‖∞ = max_i β·deg_i/A_ii < 1 and e = (M⁻¹A)⁻¹M⁻¹r gives
// ‖e‖∞ ≤ ‖M⁻¹r‖∞ / (1 − ‖N‖∞): solve stops once that bound is within
// cgTolerance of ‖x‖∞. A residual norm alone would not do: observed
// rows outweigh unobserved ones by w/β, which reaches 10¹¹ on sane
// inputs, and a residual small against them leaves the unobserved
// means off in the ninth digit. Once maxIter iterations leave the
// bound above the tolerance, it returns an error naming it.
func (a *precision) solve(x, b, scratch []float64, maxIter int) error {
	n := len(b)
	r, p, q, minv := b, scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	var rz, offDiag float64 // rᵀM⁻¹r, ‖N‖∞
	for i := range r {
		deg := a.beta * float64(a.g.Degree(i))
		minv[i] = 1 / (deg + a.reg + a.w[i])
		offDiag = math.Max(offDiag, deg*minv[i])
		x[i] = 0
		p[i] = minv[i] * r[i]
		rz += p[i] * r[i]
	}
	if rz == 0 {
		return nil // b = 0: x = 0 exactly
	}
	amplify := 1 / (1 - offDiag)
	relErr := math.Inf(1)
	for k := 1; k <= maxIter; k++ {
		pap := a.mulDot(q, p)
		if !(pap > 0) || math.IsInf(pap, 0) {
			return fmt.Errorf("gp: conjugate gradients broke down at iteration %d (pᵀAp = %v, residual bounds the error at %.3g relative to the solution)", k, pap, relErr) //lint:allow hotalloc cold path: the error ends the call
		}
		step := rz / pap
		var next, zmax, xmax float64
		for i := range x {
			x[i] += step * p[i]
			r[i] -= step * q[i]
			z := minv[i] * r[i]
			next += z * r[i]
			if az := math.Abs(z); az > zmax {
				zmax = az
			}
			if ax := math.Abs(x[i]); ax > xmax {
				xmax = ax
			}
		}
		if !(next < math.Inf(1)) { // a NaN or ±Inf anywhere in r reaches this sum
			return fmt.Errorf("gp: conjugate gradients broke down at iteration %d (non-finite residual)", k) //lint:allow hotalloc cold path: the error ends the call
		}
		if relErr = amplify * zmax / xmax; relErr <= cgTolerance {
			return nil
		}
		ratio := next / rz
		for i := range p {
			p[i] = minv[i]*r[i] + ratio*p[i]
		}
		rz = next
	}
	return fmt.Errorf("gp: conjugate gradients did not converge in %d iterations (residual bounds the error at %.3g relative to the solution, tolerance %g)", maxIter, relErr, cgTolerance)
}
