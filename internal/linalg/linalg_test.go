package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func matApproxEqual(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if !approxEqual(a.Data[i], b.Data[i], tol) {
			return false
		}
	}
	return true
}

// randomSPD builds a random symmetric positive-definite matrix
// A = MᵀM + n·I.
func randomSPD(r *rand.Rand, n int) *Matrix {
	m := NewMatrix(n, n)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	a := m.T().Mul(m)
	a.AddDiag(float64(n))
	return a
}

func TestNewMatrixZero(t *testing.T) {
	m := NewMatrix(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape: %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewMatrix must be zeroed")
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if id.At(i, j) != want {
				t.Errorf("I[%d,%d] = %v", i, j, id.At(i, j))
			}
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Errorf("FromRows layout wrong: %+v", m)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows must panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if got := a.Mul(b); !matApproxEqual(got, want, 0) {
		t.Errorf("Mul = %+v, want %+v", got, want)
	}
}

func TestMulIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	a := randomSPD(r, 5)
	if got := a.Mul(Identity(5)); !matApproxEqual(got, a, 1e-12) {
		t.Error("A·I != A")
	}
	if got := Identity(5).Mul(a); !matApproxEqual(got, a, 1e-12) {
		t.Error("I·A != A")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := a.MulVec([]float64{1, 0, -1})
	want := []float64{-2, -2}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("MulVec = %v, want %v", got, want)
		}
	}
}

func TestTranspose(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.T()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("T shape = %dx%d", at.Rows, at.Cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Errorf("T values wrong: %+v", at)
	}
	if !matApproxEqual(at.T(), a, 0) {
		t.Error("double transpose must round-trip")
	}
}

func TestScaleAddDiagAddMat(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Errorf("Scale: %+v", a)
	}
	a.AddDiag(1)
	if a.At(0, 0) != 3 || a.At(1, 1) != 9 || a.At(0, 1) != 4 {
		t.Errorf("AddDiag: %+v", a)
	}
	a.AddMat(Identity(2))
	if a.At(0, 0) != 4 || a.At(0, 1) != 4 {
		t.Errorf("AddMat: %+v", a)
	}
}

func TestSubmatrix(t *testing.T) {
	a := FromRows([][]float64{
		{1, 2, 3},
		{4, 5, 6},
		{7, 8, 9},
	})
	s := a.Submatrix([]int{0, 2}, []int{1, 2})
	want := FromRows([][]float64{{2, 3}, {8, 9}})
	if !matApproxEqual(s, want, 0) {
		t.Errorf("Submatrix = %+v, want %+v", s, want)
	}
}

func TestSymmetric(t *testing.T) {
	if !Identity(4).Symmetric(0) {
		t.Error("identity must be symmetric")
	}
	a := FromRows([][]float64{{1, 2}, {2.1, 1}})
	if a.Symmetric(0.01) {
		t.Error("asymmetric matrix detected as symmetric")
	}
	if !a.Symmetric(0.2) {
		t.Error("tolerance not honored")
	}
	if FromRows([][]float64{{1, 2, 3}}).Symmetric(1) {
		t.Error("non-square cannot be symmetric")
	}
}

func TestCholeskyKnown(t *testing.T) {
	// A = [[4, 2], [2, 3]] has L = [[2, 0], [1, sqrt(2)]].
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if !approxEqual(c.L.At(0, 0), 2, 1e-12) ||
		!approxEqual(c.L.At(1, 0), 1, 1e-12) ||
		!approxEqual(c.L.At(1, 1), math.Sqrt(2), 1e-12) ||
		c.L.At(0, 1) != 0 {
		t.Errorf("L = %+v", c.L)
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	cases := []*Matrix{
		FromRows([][]float64{{0, 0}, {0, 0}}),       // singular
		FromRows([][]float64{{-1, 0}, {0, 1}}),      // negative pivot
		FromRows([][]float64{{1, 2, 3}, {4, 5, 6}}), // not square
		FromRows([][]float64{{1, 2}, {2, 1}}),       // indefinite
	}
	for i, a := range cases {
		if _, err := NewCholesky(a); !errors.Is(err, ErrNotSPD) {
			t.Errorf("case %d: err = %v, want ErrNotSPD", i, err)
		}
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for n := 1; n <= 20; n += 4 {
		a := randomSPD(r, n)
		c, err := NewCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := a.MulVec(x)
		got := c.SolveVec(b)
		for i := range x {
			if !approxEqual(got[i], x[i], 1e-8) {
				t.Fatalf("n=%d: SolveVec[%d] = %v, want %v", n, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyFactorReconstruction(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	a := randomSPD(r, 8)
	c, err := NewCholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.L.Mul(c.L.T()); !matApproxEqual(got, a, 1e-9) {
		t.Error("L·Lᵀ != A")
	}
}

func TestInverseSPD(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 10, 65} {
		a := randomSPD(r, n)
		inv, err := InverseSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Mul(inv); !matApproxEqual(got, Identity(n), 1e-8) {
			t.Errorf("n=%d: A·A⁻¹ != I", n)
		}
		if got := inv.Mul(a); !matApproxEqual(got, Identity(n), 1e-8) {
			t.Errorf("n=%d: A⁻¹·A != I", n)
		}
		// The lower triangle is computed and mirrored: exactly symmetric.
		if !inv.Symmetric(0) {
			t.Errorf("n=%d: inverse not exactly symmetric", n)
		}
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched Dot must panic")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// Property: for random SPD systems, the solved x satisfies A·x = b.
func TestQuickSolveSatisfiesSystem(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		a := randomSPD(r, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = r.NormFloat64() * 10
		}
		c, err := NewCholesky(a)
		if err != nil {
			return false
		}
		x := c.SolveVec(b)
		back := a.MulVec(x)
		for i := range b {
			if !approxEqual(back[i], b[i], 1e-7) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSubmatrixBoundsPanic(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	cases := []struct {
		rows, cols []int
		want       string
	}{
		{[]int{0, 2}, []int{0}, "row index 2"},
		{[]int{-1}, []int{0}, "row index -1"},
		{[]int{0}, []int{5}, "column index 5"},
		{[]int{1}, []int{-3}, "column index -3"},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("Submatrix(%v, %v) must panic", tc.rows, tc.cols)
					return
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "linalg: Submatrix") || !strings.Contains(msg, tc.want) {
					t.Errorf("Submatrix(%v, %v) panic = %q, want mention of %q", tc.rows, tc.cols, msg, tc.want)
				}
			}()
			a.Submatrix(tc.rows, tc.cols)
		}()
	}
	// In-range index sets still work.
	if got := a.Submatrix([]int{1}, []int{0, 1}); got.At(0, 1) != 4 {
		t.Errorf("valid Submatrix broken: %+v", got)
	}
}

func BenchmarkCholesky64(b *testing.B) {
	r := rand.New(rand.NewSource(17))
	a := randomSPD(r, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewCholesky(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolve256(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	a := randomSPD(r, 256)
	c, err := NewCholesky(a)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, 256)
	for i := range rhs {
		rhs[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SolveVec(rhs)
	}
}
