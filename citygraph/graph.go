// Package citygraph models a city street network as an undirected
// graph whose vertices are junctions, as required by the traffic
// modelling component (Section 6 of Artikis et al., EDBT 2014): "In
// the traffic graph G each junction corresponds to one vertex."
//
// The paper builds its graph from an OpenStreetMap extract of Dublin,
// restricted to a bounding window and split at junctions (Section 7.3,
// Figures 7-8). Offline, this package instead generates a
// deterministic Dublin-like street network (irregular grid, a river
// gap crossed by a small number of bridges, and diagonal avenues);
// the Gaussian Process machinery only depends on graph structure, so
// the substitution preserves the modelled behaviour.
package citygraph

import (
	"fmt"
	"math"

	"github.com/insight-dublin/insight/geo"
)

// Vertex is a street junction.
type Vertex struct {
	ID  int
	Pos geo.Point
}

// Edge is an undirected street segment between two junction IDs.
type Edge struct {
	A, B int
}

// Graph is an undirected street network. Construct with NewGraph or
// GenerateDublin, then add edges with AddEdge.
type Graph struct {
	vertices []Vertex
	edges    []Edge
	adj      [][]int // adjacency lists, parallel to vertices
	edgeSet  map[[2]int]bool
}

// NewGraph creates an empty graph.
func NewGraph() *Graph {
	return &Graph{edgeSet: make(map[[2]int]bool)}
}

// AddVertex appends a junction at pos and returns its ID.
func (g *Graph) AddVertex(pos geo.Point) int {
	id := len(g.vertices)
	g.vertices = append(g.vertices, Vertex{ID: id, Pos: pos})
	g.adj = append(g.adj, nil)
	return id
}

// AddEdge connects junctions a and b. Self-loops and duplicate edges
// are ignored. It panics on out-of-range IDs.
func (g *Graph) AddEdge(a, b int) {
	if a < 0 || b < 0 || a >= len(g.vertices) || b >= len(g.vertices) {
		panic(fmt.Sprintf("citygraph: edge (%d, %d) out of range", a, b))
	}
	if a == b {
		return
	}
	if a > b {
		a, b = b, a
	}
	key := [2]int{a, b}
	if g.edgeSet[key] {
		return
	}
	g.edgeSet[key] = true
	g.edges = append(g.edges, Edge{A: a, B: b})
	g.adj[a] = append(g.adj[a], b)
	g.adj[b] = append(g.adj[b], a)
}

// NumVertices returns the junction count.
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the street segment count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Vertex returns the junction with the given ID.
func (g *Graph) Vertex(id int) Vertex { return g.vertices[id] }

// Vertices returns all junctions (shared slice; do not modify).
func (g *Graph) Vertices() []Vertex { return g.vertices }

// Edges returns all street segments (shared slice; do not modify).
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the junctions adjacent to id (shared slice).
func (g *Graph) Neighbors(id int) []int { return g.adj[id] }

// Degree returns the number of streets meeting at junction id.
func (g *Graph) Degree(id int) int { return len(g.adj[id]) }

// HasEdge reports whether junctions a and b are directly connected.
func (g *Graph) HasEdge(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return g.edgeSet[[2]int{a, b}]
}

// NearestVertex returns the junction closest to p by great-circle
// distance, and that distance in meters. The paper maps SCATS sensor
// locations "to their nearest neighbours within this street network"
// (Section 7.3). It returns (-1, +Inf) on an empty graph.
func (g *Graph) NearestVertex(p geo.Point) (int, float64) {
	best, bestDist := -1, math.Inf(1)
	for _, v := range g.vertices {
		if d := geo.Distance(p, v.Pos); d < bestDist {
			best, bestDist = v.ID, d
		}
	}
	return best, bestDist
}

// ConnectedComponents returns the vertex sets of the connected
// components, largest first by size.
func (g *Graph) ConnectedComponents() [][]int {
	seen := make([]bool, len(g.vertices))
	var comps [][]int
	for start := range g.vertices {
		if seen[start] {
			continue
		}
		var comp []int
		stack := []int{start}
		seen[start] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, v)
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		comps = append(comps, comp)
	}
	// Largest first (insertion sort; component counts are tiny).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// Connected reports whether the whole network is one component.
func (g *Graph) Connected() bool {
	if len(g.vertices) == 0 {
		return true
	}
	return len(g.ConnectedComponents()) == 1
}
