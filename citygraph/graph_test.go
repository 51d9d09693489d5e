package citygraph

import (
	"strings"
	"testing"

	"github.com/insight-dublin/insight/geo"
)

func triangle() *Graph {
	g := NewGraph()
	a := g.AddVertex(geo.At(53.30, -6.30))
	b := g.AddVertex(geo.At(53.31, -6.30))
	c := g.AddVertex(geo.At(53.30, -6.29))
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	g.AddEdge(c, a)
	return g
}

func TestAddVertexEdgeBasics(t *testing.T) {
	g := triangle()
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("triangle has %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	for i := 0; i < 3; i++ {
		if g.Degree(i) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", i, g.Degree(i))
		}
	}
	if !hasEdge(g, 0, 1) || !hasEdge(g, 1, 0) {
		t.Error("HasEdge must be symmetric")
	}
	if hasEdge(g, 0, 0) {
		t.Error("no self loop expected")
	}
}

func TestAddEdgeDeduplication(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex(geo.At(0, 0))
	b := g.AddVertex(geo.At(1, 1))
	g.AddEdge(a, b)
	g.AddEdge(b, a) // duplicate, reversed
	g.AddEdge(a, a) // self loop, ignored
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Error("duplicate edge must not inflate degrees")
	}
}

func TestAddEdgePanicsOutOfRange(t *testing.T) {
	g := NewGraph()
	g.AddVertex(geo.At(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("out-of-range edge must panic")
		}
	}()
	g.AddEdge(0, 5)
}

func TestConnectedComponents(t *testing.T) {
	g := NewGraph()
	a := g.AddVertex(geo.At(0, 0))
	b := g.AddVertex(geo.At(0, 1))
	c := g.AddVertex(geo.At(1, 0))
	d := g.AddVertex(geo.At(1, 1))
	e := g.AddVertex(geo.At(2, 2))
	g.AddEdge(a, b)
	g.AddEdge(b, c)
	_ = d
	_ = e
	comps := g.ConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Errorf("largest component size = %d, want 3", len(comps[0]))
	}
	if connected(g) {
		t.Error("graph with isolated vertices is not connected")
	}
	g.AddEdge(c, d)
	g.AddEdge(d, e)
	if !connected(g) {
		t.Error("graph should now be connected")
	}
	if !connected(NewGraph()) {
		t.Error("empty graph is trivially connected")
	}
}

func TestGenerateDublinDeterministic(t *testing.T) {
	g1 := GenerateDublin(DublinConfig{Seed: 42})
	g2 := GenerateDublin(DublinConfig{Seed: 42})
	if g1.NumVertices() != g2.NumVertices() || g1.NumEdges() != g2.NumEdges() {
		t.Fatal("same seed must give the same network")
	}
	for i := 0; i < g1.NumVertices(); i++ {
		if g1.Vertex(i).Pos != g2.Vertex(i).Pos {
			t.Fatal("same seed must give the same junction positions")
		}
	}
	g3 := GenerateDublin(DublinConfig{Seed: 43})
	same := g1.NumEdges() == g3.NumEdges()
	if same {
		// Edge counts can coincide; check positions differ somewhere.
		differs := false
		for i := 0; i < g1.NumVertices(); i++ {
			if g1.Vertex(i).Pos != g3.Vertex(i).Pos {
				differs = true
				break
			}
		}
		if !differs {
			t.Error("different seeds should give different layouts")
		}
	}
}

func TestGenerateDublinStructure(t *testing.T) {
	g := GenerateDublin(DublinConfig{Seed: 1})
	if !connected(g) {
		t.Fatal("generated network must be connected")
	}
	if g.NumVertices() < 500 {
		t.Errorf("network too small: %d junctions", g.NumVertices())
	}
	// All junctions inside (a slightly expanded) bounding window.
	box := geo.Dublin.Expand(0.002, 0.002)
	for _, v := range g.vertices {
		if !box.Contains(v.Pos) {
			t.Fatalf("junction %v outside Dublin window", v.Pos)
		}
	}
	// The river restricts crossings: count edges crossing the mid
	// latitude; it must be well below the grid width, but nonzero.
	riverLat := (geo.Dublin.MinLat + geo.Dublin.MaxLat) / 2
	crossings := 0
	for _, e := range g.edges {
		a, b := g.Vertex(e.A).Pos.Lat, g.Vertex(e.B).Pos.Lat
		if (a < riverLat) != (b < riverLat) {
			crossings++
		}
	}
	if crossings == 0 {
		t.Error("no river crossings at all — north and south city disconnected?")
	}
	cfg := DublinConfig{}.withDefaults()
	if crossings > cfg.Bridges+4 { // stitching may add a couple
		t.Errorf("too many river crossings: %d (bridges = %d)", crossings, cfg.Bridges)
	}
}

func TestGenerateDublinCustomSize(t *testing.T) {
	g := GenerateDublin(DublinConfig{GridX: 6, GridY: 4, Seed: 9})
	if g.NumVertices() != 24 {
		t.Errorf("NumVertices = %d, want 24", g.NumVertices())
	}
	if !connected(g) {
		t.Error("small network must still be connected")
	}
}

func TestRenderSVG(t *testing.T) {
	g := GenerateDublin(DublinConfig{GridX: 10, GridY: 8, Seed: 3})
	values := make([]float64, g.NumVertices())
	for i := range values {
		values[i] = float64(i)
	}
	var sb strings.Builder
	err := g.RenderSVG(&sb, RenderOptions{
		Width:   400,
		Values:  values,
		Sensors: []int{0, 5, 10},
		Title:   "test render",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(strings.TrimSpace(out), "</svg>") {
		t.Error("output is not an SVG document")
	}
	if !strings.Contains(out, "<line") {
		t.Error("no street segments rendered")
	}
	if !strings.Contains(out, `fill="black"`) {
		t.Error("no sensor dots rendered")
	}
	if !strings.Contains(out, "test render") {
		t.Error("title missing")
	}
	// Value shading spans green to red.
	if !strings.Contains(out, "#00ff00") {
		t.Error("lowest value should render pure green")
	}
	if !strings.Contains(out, "#ff0000") {
		t.Error("highest value should render pure red")
	}
}

func TestRenderSVGErrors(t *testing.T) {
	g := triangle()
	var sb strings.Builder
	if err := g.RenderSVG(&sb, RenderOptions{Values: []float64{1}}); err == nil {
		t.Error("value/vertex count mismatch must error")
	}
	if err := g.RenderSVG(&sb, RenderOptions{Sensors: []int{99}}); err == nil {
		t.Error("out-of-range sensor must error")
	}
}

func TestHeatColor(t *testing.T) {
	if c := heatColor(0, 0, 1); c != "#00ff00" {
		t.Errorf("low = %s, want green", c)
	}
	if c := heatColor(1, 0, 1); c != "#ff0000" {
		t.Errorf("high = %s, want red", c)
	}
	if c := heatColor(0.5, 0, 1); c != "#ffff00" {
		t.Errorf("mid = %s, want yellow", c)
	}
	// Degenerate range must not divide by zero.
	if c := heatColor(5, 5, 5); c != "#00ff00" {
		t.Errorf("degenerate = %s, want green", c)
	}
}

func TestRenderSVGHighlights(t *testing.T) {
	g := triangle()
	var sb strings.Builder
	if err := g.RenderSVG(&sb, RenderOptions{Highlights: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `stroke="#d00"`) {
		t.Error("highlight ring not rendered")
	}
	if err := g.RenderSVG(&sb, RenderOptions{Highlights: []int{99}}); err == nil {
		t.Error("out-of-range highlight must error")
	}
}

// hasEdge reports whether junctions a and b are directly connected.
func hasEdge(g *Graph, a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return g.edgeSet[[2]int{a, b}]
}

// connected reports whether the whole network is one component.
func connected(g *Graph) bool {
	return len(g.ConnectedComponents()) <= 1
}
