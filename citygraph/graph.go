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

	"github.com/insight-dublin/insight/geo"
)

// Vertex is a street junction.
type Vertex struct {
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
	g.vertices = append(g.vertices, Vertex{Pos: pos})
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

// Neighbors returns the junctions adjacent to id (shared slice).
func (g *Graph) Neighbors(id int) []int { return g.adj[id] }

// Degree returns the number of streets meeting at junction id.
func (g *Graph) Degree(id int) int { return len(g.adj[id]) }

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
