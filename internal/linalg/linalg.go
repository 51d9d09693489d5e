// Package linalg provides the dense linear algebra the Gaussian
// Process package keeps for its dense path: matrices, Cholesky
// factorization of symmetric positive-definite systems, substitution and
// inversion. The regularized-Laplacian model itself is solved sparse
// (gp's precision solver); what stays dense — the random-walk kernel
// ablation and the test oracle for the sparse solves — runs here, one
// serial implementation per operation, with no dependencies beyond the
// standard library.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrNotSPD is returned by Cholesky when the matrix is not symmetric
// positive definite (within floating point tolerance).
var ErrNotSPD = errors.New("linalg: matrix is not symmetric positive definite")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative matrix dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
//
//lint:allow unusedapi builds the references linalg's tests hold Mul and Inverse to; linalg stays whole with the dense GP oracle
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// FromRows builds a matrix from row slices; all rows must have equal length.
//
//lint:allow unusedapi builds the matrices linalg's tests start from; linalg stays whole with the dense GP oracle
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	cols := len(rows[0])
	m := NewMatrix(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments element (i, j) by v.
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m·o, row-major in i-k-j order so the
// inner loop streams a row of o into a row of the result.
func (m *Matrix) Mul(o *Matrix) *Matrix {
	if m.Cols != o.Rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, o.Rows, o.Cols))
	}
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

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v []float64) []float64 {
	if m.Cols != len(v) {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(v)))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var sum float64
		for j, rv := range row {
			sum += rv * v[j]
		}
		out[i] = sum
	}
	return out
}

// Scale multiplies every element by s in place and returns m.
func (m *Matrix) Scale(s float64) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// AddMat adds o element-wise in place and returns m.
//
//lint:allow unusedapi dense matrix algebra kept whole with the GP oracle
func (m *Matrix) AddMat(o *Matrix) *Matrix {
	if m.Rows != o.Rows || m.Cols != o.Cols {
		panic("linalg: dimension mismatch in AddMat")
	}
	for i := range m.Data {
		m.Data[i] += o.Data[i]
	}
	return m
}

// AddDiag adds v to each diagonal element in place and returns m.
func (m *Matrix) AddDiag(v float64) *Matrix {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Add(i, i, v)
	}
	return m
}

// Submatrix extracts the rows and cols index sets into a new matrix.
// Out-of-range indexes panic with a message naming the offending index
// and the valid range (rather than a raw slice-bounds panic from Data).
func (m *Matrix) Submatrix(rows, cols []int) *Matrix {
	for _, ri := range rows {
		if ri < 0 || ri >= m.Rows {
			panic(fmt.Sprintf("linalg: Submatrix row index %d out of range [0, %d)", ri, m.Rows))
		}
	}
	for _, cj := range cols {
		if cj < 0 || cj >= m.Cols {
			panic(fmt.Sprintf("linalg: Submatrix column index %d out of range [0, %d)", cj, m.Cols))
		}
	}
	out := NewMatrix(len(rows), len(cols))
	for i, ri := range rows {
		src := m.Data[ri*m.Cols : (ri+1)*m.Cols]
		dst := out.Data[i*len(cols) : (i+1)*len(cols)]
		for j, cj := range cols {
			dst[j] = src[cj]
		}
	}
	return out
}

// Symmetric reports whether the matrix equals its transpose within tol.
//
//lint:allow unusedapi the symmetry check gp's kernel tests apply; linalg stays whole with the dense GP oracle
func (m *Matrix) Symmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: dimension mismatch in Dot")
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}
