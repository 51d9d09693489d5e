package linalg

import "math"

// This file retains the seed (naive, serial) implementations verbatim.
// They are the ground truth for the property/fuzz equivalence suite,
// the small-n fallback of the blocked kernels, and — via the Reference
// option — the serial baseline the gp benchmarks (make bench-gp) measure
// the blocked/parallel kernels against.

// naiveCholesky is the seed unblocked factorization: for each column,
// a full-length dot against every earlier column. Returns the lower
// triangular factor L with A = L·Lᵀ.
func naiveCholesky(a *Matrix) (*Matrix, error) {
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		var d float64 = a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return l, nil
}

// naiveMul is the seed cache-oblivious row-major i-k-j product.
func naiveMul(m, o *Matrix) *Matrix {
	out := NewMatrix(m.Rows, o.Cols)
	for i := 0; i < m.Rows; i++ {
		mrow := m.Data[i*m.Cols : (i+1)*m.Cols]
		orow := out.Data[i*o.Cols : (i+1)*o.Cols]
		for k, mv := range mrow {
			if mv == 0 {
				continue
			}
			okRow := o.Data[k*o.Cols : (k+1)*o.Cols]
			for j, ov := range okRow {
				orow[j] += mv * ov
			}
		}
	}
	return out
}

// naiveSolveVec is the seed single-RHS substitution. The back pass
// walks L column-wise (stride-n loads), which is exactly the cache
// behaviour the blocked solver exists to avoid.
func naiveSolveVec(l *Matrix, b []float64) []float64 {
	n := l.Rows
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Data[i*n : i*n+i]
		for k, lv := range row {
			s -= lv * y[k]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x
}

// naiveSolve is the seed multi-RHS solve: one naiveSolveVec per column.
func naiveSolve(l *Matrix, b *Matrix) *Matrix {
	n := l.Rows
	out := NewMatrix(n, b.Cols)
	col := make([]float64, n)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < n; i++ {
			col[i] = b.At(i, j)
		}
		x := naiveSolveVec(l, col)
		for i := 0; i < n; i++ {
			out.Set(i, j, x[i])
		}
	}
	return out
}
