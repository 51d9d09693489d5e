// Package hafix exercises the hotalloc scoping of package gp. It is
// loaded under the import path "fixture/gp", so the mean path —
// crossCov, meanFrom, Mean, PredictAll — is held to "a gather and one
// product", and the sparse solves — MeanAll, VarianceAll, system,
// standardize, solve, mulDot — to a constant number of slices: nothing
// allocated per vertex or per iteration.
package hafix

type regression struct {
	observed []int
	alpha    []float64
	k        [][]float64
}

// Mean builds one cross-covariance row per vertex: the per-vertex make
// is flagged.
func (r *regression) Mean(vertices []int) []float64 {
	mean := make([]float64, len(vertices))
	for i, v := range vertices {
		cross := make([]float64, len(r.observed))
		for j, u := range r.observed {
			cross[j] = r.k[v][u]
		}
		mean[i] = dot(cross, r.alpha)
	}
	return mean
}

// PredictAll grows its vertex list inside the loop: flagged.
func (r *regression) PredictAll() []float64 {
	var vertices []int
	for i := range r.k {
		vertices = append(vertices, i)
	}
	return r.Mean(vertices)
}

// meanFrom is the accepted shape: allocation outside, arithmetic inside.
func (r *regression) meanFrom(cross [][]float64) []float64 {
	mean := make([]float64, len(cross))
	for i, row := range cross {
		mean[i] = dot(row, r.alpha)
	}
	return mean
}

// Predict is the opt-in variance path, outside the scope: a solve
// buffer per vertex passes.
func (r *regression) Predict(vertices []int) []float64 {
	variance := make([]float64, len(vertices))
	for i := range vertices {
		sol := make([]float64, len(r.observed))
		variance[i] = dot(sol, sol)
	}
	return variance
}

type precision struct {
	adj [][]int
	w   []float64
}

// mulDot is the accepted shape of the solver's product: arithmetic over
// the adjacency lists, nothing allocated.
func (a *precision) mulDot(out, x []float64) float64 {
	var xax float64
	for i, nb := range a.adj {
		s := (float64(len(nb)) + a.w[i]) * x[i]
		for _, j := range nb {
			s -= x[j]
		}
		out[i] = s
		xax += x[i] * s
	}
	return xax
}

// solve allocates a fresh product vector per iteration: flagged.
func (a *precision) solve(x, b []float64) {
	for k := 0; k < 8; k++ {
		q := make([]float64, len(b))
		if a.mulDot(q, x) == 0 {
			return
		}
	}
}

// system is the accepted shape of the solves' set-up: one allocation,
// a loop that only writes into it.
func system(n int, observed []int, noise []float64) precision {
	a := precision{adj: make([][]int, n), w: make([]float64, n)}
	for i, v := range observed {
		a.w[v] = 1 / noise[i]
	}
	return a
}

// VarianceAll gives every vertex's solve a fresh right-hand side inside
// the worker closure: flagged at its loop depth.
func (a *precision) VarianceAll(workers int, run func(int, func(int))) []float64 {
	n := len(a.adj)
	variance := make([]float64, n)
	run(workers, func(w int) {
		for v := w; v < n; v += workers {
			b := make([]float64, n)
			b[v] = 1
			a.solve(b, b)
			variance[v] = b[v]
		}
	})
	return variance
}

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
