package gp

import (
	"fmt"

	"github.com/insight-dublin/insight/citygraph"
	"github.com/insight-dublin/insight/internal/linalg"
)

// The paper picks the regularized Laplacian from the family of graph
// kernels of Smola & Kondor (its reference [27], "Kernels and
// regularization on graphs"). That family contains other members with
// the same "adjacent junctions correlate" semantics; this file adds
// the p-step random-walk kernel
//
//	K = (aI − L)^p,  a ≥ λ_max(L)
//
// which models covariance as the number of ≤p-step walks between
// junctions. It gives a strictly local support (radius p), unlike the
// regularized Laplacian's global decay — a meaningful ablation for the
// traffic model (see GridSearch-style comparison in the tests and
// cmd/gpmap).

// RandomWalkKernel builds K = (aI − L)^p for the graph. p must be at
// least 1; a must make aI − L positive semi-definite, for which
// a ≥ λ_max(L) suffices — the conservative bound a ≥ 2·maxDegree is
// applied automatically when a = 0. The result is normalized to unit
// maximum diagonal so its scale is comparable to the regularized
// Laplacian kernel.
func RandomWalkKernel(g *citygraph.Graph, a float64, p int) (*Kernel, error) {
	if g == nil || g.NumVertices() == 0 {
		return nil, fmt.Errorf("gp: empty graph")
	}
	if p < 1 {
		return nil, fmt.Errorf("gp: random-walk steps must be >= 1, got %d", p)
	}
	maxDeg := 0
	for i := 0; i < g.NumVertices(); i++ {
		if d := g.Degree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if a == 0 {
		a = 2 * float64(maxDeg)
		if a == 0 {
			a = 1 // edgeless graph: L = 0
		}
	}
	if a < float64(2*maxDeg) {
		// λ_max(L) ≤ 2·maxDegree; smaller a risks an indefinite
		// kernel. Reject rather than producing a silently broken
		// model.
		return nil, fmt.Errorf("gp: random-walk a = %v below the PSD bound 2·maxDegree = %d", a, 2*maxDeg)
	}

	base := laplacian(g).Scale(-1).AddDiag(a) // aI − L
	k := base.Clone()
	for i := 1; i < p; i++ {
		k = k.Mul(base)
	}
	// Normalize to unit max diagonal.
	var maxDiag float64
	for i := 0; i < k.Rows; i++ {
		if v := k.At(i, i); v > maxDiag {
			maxDiag = v
		}
	}
	if maxDiag > 0 {
		k.Scale(1 / maxDiag)
	}
	return &Kernel{k: k}, nil
}

// laplacian returns the combinatorial Laplacian L = D − A of the street
// graph (Section 6) as a dense n×n matrix, the base both dense kernels
// are built from: the degree on the diagonal, −1 per street.
func laplacian(g *citygraph.Graph) *linalg.Matrix {
	n := g.NumVertices()
	l := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		l.Set(i, i, float64(g.Degree(i)))
		for _, j := range g.Neighbors(i) {
			l.Set(i, j, -1)
		}
	}
	return l
}
