package linalg

import (
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// Go fuzz targets for the factorization/solve kernels. The contract
// under arbitrary square inputs (including NaN, ±Inf, denormals and
// wild exponents):
//
//  1. never panic,
//  2. reject non-SPD matrices with ErrNotSPD and nothing else,
//  3. on success, the solve must actually satisfy the system:
//     ‖A·x − b‖ stays within the backward-stable bound when nothing
//     overflowed.
//
// `make check` runs each target for a few seconds; `make fuzz-short`
// for ~10s each.

// fuzzMatrix builds an n×n matrix from raw bytes: each 8-byte chunk is
// a float64 bit pattern, so the corpus can reach any representable
// value. Missing bytes read as zero.
func fuzzMatrix(data []byte, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := range a.Data {
		if off := i * 8; off+8 <= len(data) {
			a.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[off : off+8]))
		}
	}
	return a
}

func allFinite(v []float64) bool {
	for _, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

func norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// residualOK checks ‖A·x − b‖ against a generous backward-stability
// bound c·n·eps·(‖A‖_F·‖x‖ + ‖b‖). Extreme scales (near overflow or
// total underflow) are exempt: intermediate rounding there is not
// covered by the bound.
func residualOK(a *Matrix, x, b []float64) bool {
	normA := norm2(a.Data)
	normX := norm2(x)
	normB := norm2(b)
	if normA > 1e100 || normX > 1e100 || normA*normX < 1e-100 {
		return true
	}
	back := a.MulVec(x)
	for i := range back {
		back[i] -= b[i]
	}
	n := float64(a.Rows)
	tol := 1e-12 * n * (normA*normX + normB + 1)
	return norm2(back) <= tol
}

func FuzzCholesky(f *testing.F) {
	// Identity-ish, non-SPD, NaN and big-exponent seeds.
	id3 := make([]byte, 9*8)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(id3[(i*3+i)*8:], math.Float64bits(1))
	}
	f.Add(id3, uint8(3))
	neg := make([]byte, 8)
	binary.LittleEndian.PutUint64(neg, math.Float64bits(-1))
	f.Add(neg, uint8(1))
	nan := make([]byte, 4*8)
	binary.LittleEndian.PutUint64(nan, math.Float64bits(math.NaN()))
	f.Add(nan, uint8(2))
	huge := make([]byte, 8)
	binary.LittleEndian.PutUint64(huge, math.Float64bits(1e300))
	f.Add(huge, uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		size := int(n%16) + 1
		a := fuzzMatrix(data, size)
		c, err := NewCholesky(a)
		if err != nil {
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("non-ErrNotSPD failure: %v", err)
			}
			return
		}
		// The factor must be lower triangular with positive diagonal.
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if c.L.At(i, j) != 0 {
					t.Fatalf("L[%d,%d] = %v above the diagonal", i, j, c.L.At(i, j))
				}
			}
			if !(c.L.At(i, i) > 0) {
				t.Fatalf("L[%d,%d] = %v, want > 0", i, i, c.L.At(i, i))
			}
		}
		// The factorization reads only the lower triangle; the operator
		// it solves is the symmetrized matrix.
		sym := a.Clone()
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				sym.Set(i, j, sym.At(j, i))
			}
		}
		if !allFinite(sym.Data) {
			return // Inf inputs can factor "successfully"; no residual claim
		}
		b := make([]float64, size)
		for i := range b {
			b[i] = float64(i + 1)
		}
		x := c.SolveVec(b)
		if !allFinite(x) || !allFinite(c.L.Data) {
			return // overflow during factorization/solve voids the bound
		}
		if !residualOK(sym, x, b) {
			t.Fatalf("residual ‖A·x−b‖ out of bounds for n=%d", size)
		}
	})
}

func FuzzSolveVec(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{255, 255, 255, 255, 0, 0, 0, 0, 128}, uint8(9))

	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		size := int(n%16) + 1
		// Bounded entries symmetrized with a diagonal boost: usually SPD,
		// so the success path (and its residual) gets real coverage, but
		// near-singular cases still occur.
		a := NewMatrix(size, size)
		for i := 0; i < size; i++ {
			for j := 0; j <= i; j++ {
				var v float64
				if off := i*size + j; off < len(data) {
					v = (float64(data[off]) - 127.5) / 127.5
				}
				a.Set(i, j, v)
				a.Set(j, i, v)
			}
		}
		var boost float64
		if len(data) > 0 {
			boost = float64(data[len(data)-1]) / 64
		}
		a.AddDiag(boost)
		b := make([]float64, size)
		for i := range b {
			if off := size*size + i; off < len(data) {
				b[i] = (float64(data[off]) - 127.5) * 4
			}
		}
		c, err := NewCholesky(a)
		if err != nil {
			if !errors.Is(err, ErrNotSPD) {
				t.Fatalf("non-ErrNotSPD failure: %v", err)
			}
			return
		}
		x := c.SolveVec(b)
		if len(x) != size {
			t.Fatalf("SolveVec returned %d values for n=%d", len(x), size)
		}
		if !allFinite(x) {
			return // near-singular: overflow is acceptable, panic is not
		}
		if !residualOK(a, x, b) {
			t.Fatalf("residual ‖A·x−b‖ out of bounds for n=%d", size)
		}
	})
}
