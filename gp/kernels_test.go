package gp

import (
	"math"
	"testing"

	"github.com/insight-dublin/insight/citygraph"
)

func TestRandomWalkKernelValidation(t *testing.T) {
	g := pathGraph(4)
	if _, err := RandomWalkKernel(nil, 0, 1); err == nil {
		t.Error("nil graph must error")
	}
	if _, err := RandomWalkKernel(g, 0, 0); err == nil {
		t.Error("p = 0 must error")
	}
	if _, err := RandomWalkKernel(g, 1, 2); err == nil {
		t.Error("a below the PSD bound must error")
	}
}

func TestRandomWalkKernelProperties(t *testing.T) {
	g := pathGraph(6)
	k, err := RandomWalkKernel(g, 0, 2) // a defaults to 2·maxDegree
	if err != nil {
		t.Fatal(err)
	}
	if k.NumVertices() != 6 {
		t.Fatalf("NumVertices = %d", k.NumVertices())
	}
	// Symmetric with unit max diagonal.
	maxDiag := 0.0
	for i := 0; i < 6; i++ {
		if v := k.At(i, i); v > maxDiag {
			maxDiag = v
		}
		for j := 0; j < 6; j++ {
			if math.Abs(k.At(i, j)-k.At(j, i)) > 1e-12 {
				t.Fatalf("not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if math.Abs(maxDiag-1) > 1e-12 {
		t.Errorf("max diagonal = %v, want 1", maxDiag)
	}
	// Strictly local support: with p = 2, vertices more than 2 hops
	// apart have zero covariance — unlike the regularized Laplacian.
	if k.At(0, 5) != 0 {
		t.Errorf("K[0,5] = %v, want 0 (5 hops apart, p = 2)", k.At(0, 5))
	}
	if k.At(0, 2) <= 0 {
		t.Errorf("K[0,2] = %v, want > 0 (2 hops)", k.At(0, 2))
	}
	// Closer still correlates more.
	if !(k.At(0, 1) > k.At(0, 2)) {
		t.Errorf("K[0,1] = %v should exceed K[0,2] = %v", k.At(0, 1), k.At(0, 2))
	}
}

func TestRandomWalkKernelFitsAndPredicts(t *testing.T) {
	g := citygraph.GenerateDublin(citygraph.DublinConfig{GridX: 10, GridY: 6, Seed: 2})
	k, err := RandomWalkKernel(g, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := Fit(k, []Observation{
		{Vertex: 0, Value: 1000},
		{Vertex: g.NumVertices() - 1, Value: 100},
	}, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	mean, _, err := reg.Predict([]int{g.Neighbors(0)[0]})
	if err != nil {
		t.Fatal(err)
	}
	// A neighbour of the high-flow sensor leans above the global mean.
	if !(mean[0] > 550) {
		t.Errorf("neighbour estimate = %v, want pulled toward 1000", mean[0])
	}
}

// Both kernels are usable interchangeably; the regularized Laplacian
// propagates globally while the p-step kernel reverts to the mean
// beyond its radius.
func TestKernelFamilyComparison(t *testing.T) {
	g := pathGraph(12)
	lap, err := RegularizedLaplacian(g, 3, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	walk, err := RandomWalkKernel(g, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	obs := []Observation{{Vertex: 0, Value: 100}}
	far := []int{11} // 11 hops from the only sensor
	for name, k := range map[string]*Kernel{"laplacian": lap, "walk": walk} {
		reg, err := Fit(k, obs, 0.1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mean, _, err := reg.Predict(far)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		switch name {
		case "walk":
			// Outside the 2-hop support: pure prior mean (the single
			// observation's value IS the empirical mean here, so
			// check via a two-observation variant below instead).
			_ = mean
		}
	}
	// Two observations so the empirical mean (55) differs from both.
	obs2 := []Observation{{Vertex: 0, Value: 100}, {Vertex: 1, Value: 10}}
	regWalk, err := Fit(walk, obs2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	meanWalk, _, err := regWalk.Predict(far)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meanWalk[0]-55) > 1 {
		t.Errorf("walk kernel beyond support = %v, want the empirical mean 55", meanWalk[0])
	}
	regLap, err := Fit(lap, obs2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	meanLap, _, err := regLap.Predict(far)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(meanLap[0]-55) < 0.5 {
		t.Errorf("laplacian kernel should still propagate at 11 hops, got exactly the mean %v", meanLap[0])
	}
}

func TestLaplacianProperties(t *testing.T) {
	g := pathGraph(3)
	g.AddEdge(0, 2) // a triangle
	l := laplacian(g)
	// Diagonal = degree; off-diagonal = -1 for edges.
	for i := 0; i < 3; i++ {
		if l.At(i, i) != 2 {
			t.Errorf("L[%d,%d] = %v, want 2", i, i, l.At(i, i))
		}
	}
	if l.At(0, 1) != -1 || l.At(1, 2) != -1 {
		t.Error("off-diagonal entries must be -1 for edges")
	}
	// Rows sum to zero.
	for i := 0; i < 3; i++ {
		var sum float64
		for j := 0; j < 3; j++ {
			sum += l.At(i, j)
		}
		if sum != 0 {
			t.Errorf("row %d sums to %v", i, sum)
		}
	}
	if !l.Symmetric(0) {
		t.Error("Laplacian must be symmetric")
	}
	// L is PSD: xᵀLx >= 0 equals sum over edges of (x_a - x_b)².
	x := []float64{1, -2, 0.5}
	lx := l.MulVec(x)
	var quad float64
	for i := range x {
		quad += x[i] * lx[i]
	}
	want := (x[0]-x[1])*(x[0]-x[1]) + (x[1]-x[2])*(x[1]-x[2]) + (x[2]-x[0])*(x[2]-x[0])
	if math.Abs(quad-want) > 1e-12 {
		t.Errorf("xᵀLx = %v, want %v", quad, want)
	}
}
