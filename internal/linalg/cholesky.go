package linalg

import "math"

// dot4 is an inner product with four independent accumulators. A single
// chain runs every subtraction through one register, at FP-add latency;
// splitting the chain lets the core overlap the multiplies and is worth
// ~2-3× on the dot-shaped inner loops. The summation order differs from
// a single chain, which is why the tests compare against closed forms
// and residuals with a tolerance instead of bit equality.
func dot4(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Cholesky is the lower-triangular factor L of an SPD matrix A = L·Lᵀ.
type Cholesky struct {
	L *Matrix

	// lt caches Lᵀ so back substitution reads rows (contiguous memory)
	// instead of columns (stride-n loads).
	lt *Matrix
}

// NewCholesky factorizes the SPD matrix a, reading only its lower
// triangle. Each entry of L is one contiguous row-prefix inner product
// against an earlier row of L. It returns ErrNotSPD if a is not square
// or a pivot is non-positive (or NaN).
func NewCholesky(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		return nil, ErrNotSPD
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		copy(l.Data[i*n:i*n+i+1], a.Data[i*n:i*n+i+1])
	}
	for j := 0; j < n; j++ {
		jrow := l.Data[j*n : j*n+j]
		d := l.Data[j*n+j] - dot4(jrow, jrow)
		if d <= 0 || math.IsNaN(d) {
			return nil, ErrNotSPD
		}
		dj := math.Sqrt(d)
		l.Data[j*n+j] = dj
		for i := j + 1; i < n; i++ {
			irow := l.Data[i*n : i*n+j]
			l.Data[i*n+j] = (l.Data[i*n+j] - dot4(irow, jrow)) / dj
		}
	}
	return &Cholesky{L: l, lt: l.T()}, nil
}

// SolveVec solves A·x = b for x given the factorization of A. The back
// pass runs over the cached transpose, so both passes read rows.
func (c *Cholesky) SolveVec(b []float64) []float64 {
	n := c.L.Rows
	if len(b) != n {
		panic("linalg: dimension mismatch in SolveVec")
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i] - dot4(c.L.Data[i*n:i*n+i], y[:i])
		y[i] = s / c.L.Data[i*n+i]
	}
	// Back substitution: Lᵀ·x = y, reading rows of Lᵀ.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i] - dot4(c.lt.Data[i*n+i+1:(i+1)*n], x[i+1:])
		x[i] = s / c.lt.Data[i*n+i]
	}
	return x
}

// Inverse returns A⁻¹ from the factorization, exploiting structure on
// both sides: the forward result Y = L⁻¹ is lower triangular (rows
// above each column are exact zeros), and A⁻¹ is symmetric, so the back
// pass computes the lower triangle only and mirrors it — n³/3
// multiply-adds instead of the n³ of a solve against the identity.
func (c *Cholesky) Inverse() *Matrix {
	l, lt := c.L, c.lt
	n := l.Rows
	x := NewMatrix(n, n)
	// Forward: Y = L⁻¹. Row k of Y carries entries only up to column k.
	for i := 0; i < n; i++ {
		xi := x.Data[i*n : (i+1)*n]
		lrow := l.Data[i*n : i*n+i]
		for k, v := range lrow {
			xk := x.Data[k*n : k*n+k+1]
			for j, xkj := range xk {
				xi[j] -= v * xkj
			}
		}
		xi[i]++ // the identity right-hand side
		d := l.Data[i*n+i]
		for j := 0; j <= i; j++ {
			xi[j] /= d
		}
	}
	// Backward: Lᵀ·X = Y, lower triangle of X only (j <= i). Rows below
	// i are already final and their entries at columns <= i+1 are exactly
	// the ones read here.
	for i := n - 1; i >= 0; i-- {
		xi := x.Data[i*n : (i+1)*n]
		ltrow := lt.Data[i*n : (i+1)*n]
		for k := i + 1; k < n; k++ {
			v := ltrow[k]
			xk := x.Data[k*n : k*n+i+1]
			for j, xkj := range xk {
				xi[j] -= v * xkj
			}
		}
		d := l.Data[i*n+i]
		for j := 0; j <= i; j++ {
			xi[j] /= d
		}
	}
	// Mirror the computed lower triangle; the result is exactly
	// symmetric by construction.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			x.Data[i*n+j] = x.Data[j*n+i]
		}
	}
	return x
}

// InverseSPD inverts a symmetric positive-definite matrix.
func InverseSPD(a *Matrix) (*Matrix, error) {
	c, err := NewCholesky(a)
	if err != nil {
		return nil, err
	}
	return c.Inverse(), nil
}
