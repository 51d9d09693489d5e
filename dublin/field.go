package dublin

import (
	"math"

	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
)

// The ground-truth congestion field. Every bus report asks it whether
// the bus is in congestion and every SCATS reading how congested its
// junction is, so it is indexed: a static grid lists, per cell, the
// hotspots that can reach into it, and each congestion center carries
// boxes that settle most candidates without a distance.

// bounds pre-check one congestion center — a hotspot or an incident —
// before its distance is computed: reach holds every valid point within
// its three-radius cut-off, witness every valid point where its
// contribution can reach CongestionTruthThreshold at some time of day.
type bounds struct{ reach, witness geo.Box }

// nowhere is a box no point lies in.
var nowhere = geo.Box{MinLat: 1, MaxLat: -1}

// newBounds computes the bounds of a center whose temporal intensity
// never exceeds maxTemporal. exp(-d²/2r²)·maxTemporal reaches the
// threshold only for d ≤ r·√(2 ln(maxTemporal/threshold)); the slack
// under the root absorbs rounding in exp, in the temporal profile and
// in the product.
func newBounds(center geo.Point, radiusM, maxTemporal float64) bounds {
	b := bounds{reach: reachBox(center, 3*radiusM), witness: nowhere}
	if x := 2 * (math.Log(maxTemporal/CongestionTruthThreshold) + 1e-9); x >= 0 {
		b.witness = reachBox(center, radiusM*math.Sqrt(x))
	}
	return b
}

// reachBox bounds the valid points within meters of center (geo.Reach).
// The longitude bound is void where the box would reach past the
// antimeridian, and both are void for a center outside the WGS-84
// bounds, where the haversine bounds nothing.
func reachBox(center geo.Point, meters float64) geo.Box {
	inf := math.Inf(1)
	if !center.Valid() {
		return geo.Box{MinLat: -inf, MinLon: -inf, MaxLat: inf, MaxLon: inf}
	}
	dLat, dLon := geo.Reach(meters, math.Abs(center.Lat))
	if !(center.Lon-dLon >= -180 && center.Lon+dLon <= 180) {
		dLon = inf
	}
	return geo.Box{
		MinLat: center.Lat - dLat, MinLon: center.Lon - dLon,
		MaxLat: center.Lat + dLat, MaxLon: center.Lon + dLon,
	}
}

// contribution is one congestion center's share of the field at p: its
// temporal intensity under a Gaussian spatial decay, cut off at three
// radii. CongestionAt and IsCongested both compute it here, so they
// agree to the bit.
func contribution(p, center geo.Point, radiusM, temporal float64) float64 {
	d := geo.Distance(p, center)
	if d > 3*radiusM {
		return 0
	}
	return math.Exp(-d*d/(2*radiusM*radiusM)) * temporal
}

// temporal is the hotspot's daily profile at hour: the off-peak baseline
// plus a morning and an evening rush-hour peak.
func (h *hotspot) temporal(hour float64) float64 {
	return h.baseline +
		(h.peak-h.baseline)*gauss(hour, h.morning, h.widthH) +
		(h.peak-h.baseline)*gauss(hour, h.evening, h.widthH)
}

// maxTemporal bounds temporal over every hour: the farther of the two
// peaks is always at least half their distance away.
func (h *hotspot) maxTemporal() float64 {
	return h.baseline + (h.peak-h.baseline)*(1+gauss(math.Abs(h.evening-h.morning)/2, 0, h.widthH))
}

func gauss(x, mu, sigma float64) float64 {
	d := x - mu
	return math.Exp(-d * d / (2 * sigma * sigma))
}

// fieldGrid indexes the hotspots by where they reach: the bounding box
// of their reach boxes (clipped to the WGS-84 bounds) cut into cells
// about half the smallest reach tall and wide, stored CSR-style — cell
// c lists the hotspots whose reach box overlaps it, ascending, in
// items[start[c]:start[c+1]], cells in row-major order. A hotspot absent
// from a point's cell is more than three radii from it.
type fieldGrid struct {
	lat0, lon0       float64 // south-west corner of cell (0, 0)
	cellLat, cellLon float64 // cell size in degrees
	rows, cols       int
	start            []int32 // len rows*cols+1
	items            []int32 // hotspot indexes, cell by cell
}

// fieldCellsPerHotspot and fieldMinCells bound the grid, as in traffic's
// close index: hotspots spread far relative to their reach get coarser
// cells (more candidates per lookup, same answer).
const (
	fieldCellsPerHotspot = 64
	fieldMinCells        = 1 << 12
)

// newFieldGrid indexes the hotspots by their reach boxes.
func newFieldGrid(hotspots []hotspot) fieldGrid {
	g := fieldGrid{start: []int32{0}}
	if len(hotspots) == 0 {
		return g
	}
	boxes := make([]geo.Box, len(hotspots))
	ext := geo.Box{MinLat: 90, MinLon: 180, MaxLat: -90, MaxLon: -180}
	g.cellLat, g.cellLon = math.Inf(1), math.Inf(1)
	for i := range hotspots {
		// Clipped to the WGS-84 bounds, where a void bound is infinite.
		b := hotspots[i].reach
		b = geo.Box{
			MinLat: max(b.MinLat, -90), MinLon: max(b.MinLon, -180),
			MaxLat: min(b.MaxLat, 90), MaxLon: min(b.MaxLon, 180),
		}
		boxes[i] = b
		ext = geo.Box{
			MinLat: min(ext.MinLat, b.MinLat), MinLon: min(ext.MinLon, b.MinLon),
			MaxLat: max(ext.MaxLat, b.MaxLat), MaxLon: max(ext.MaxLon, b.MaxLon),
		}
		// A box is two reaches tall and wide; cells are half a reach.
		g.cellLat = min(g.cellLat, (b.MaxLat-b.MinLat)/4)
		g.cellLon = min(g.cellLon, (b.MaxLon-b.MinLon)/4)
	}
	g.lat0, g.lon0 = ext.MinLat, ext.MinLon
	budget := max(fieldMinCells, fieldCellsPerHotspot*float64(len(boxes)))
	for {
		rows := math.Floor((ext.MaxLat-g.lat0)/g.cellLat) + 1
		cols := math.Floor((ext.MaxLon-g.lon0)/g.cellLon) + 1
		if rows*cols <= budget {
			g.rows, g.cols = int(rows), int(cols)
			break
		}
		g.cellLat *= 2
		g.cellLon *= 2
	}

	// Counting sort of (cell, hotspot) pairs by cell: ascending within
	// each cell because hotspots are visited in index order. A box's
	// corners and any point inside it go through the same monotone cell
	// arithmetic, so the point's cell is among the box's.
	cells := func(b geo.Box, visit func(c int)) {
		r0, c0 := g.cell(b.MinLat, b.MinLon)
		r1, c1 := g.cell(b.MaxLat, b.MaxLon)
		for r := r0; r <= r1; r++ {
			for c := c0; c <= c1; c++ {
				visit(r*g.cols + c)
			}
		}
	}
	g.start = make([]int32, g.rows*g.cols+1)
	for _, b := range boxes {
		cells(b, func(c int) { g.start[c+1]++ })
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, g.start[len(g.start)-1])
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, b := range boxes {
		cells(b, func(c int) {
			g.items[next[c]] = int32(i)
			next[c]++
		})
	}
	return g
}

// cell returns the (floored) grid row and column of a coordinate inside
// the grid's extent.
func (g *fieldGrid) cell(lat, lon float64) (row, col int) {
	return int(math.Floor((lat - g.lat0) / g.cellLat)), int(math.Floor((lon - g.lon0) / g.cellLon))
}

// at returns the hotspots listed for the cell of p, a valid WGS-84
// point: none when p lies outside the grid.
func (g *fieldGrid) at(p geo.Point) []int32 {
	row := math.Floor((p.Lat - g.lat0) / g.cellLat)
	col := math.Floor((p.Lon - g.lon0) / g.cellLon)
	if !(row >= 0 && row < float64(g.rows) && col >= 0 && col < float64(g.cols)) {
		return nil
	}
	c := int(row)*g.cols + int(col)
	return g.items[g.start[c]:g.start[c+1]]
}

// CongestionAt returns the ground-truth congestion intensity in [0, 1]
// at a location and absolute time (seconds): the largest contribution
// of any hotspot — a double-peaked (morning and evening rush hour)
// daily profile under a Gaussian spatial decay — or of any incident in
// progress, capped at 1. The field is defined on valid WGS-84 points;
// any other point (NaN and ±Inf included) reads 0. Only the hotspots
// the grid lists for p's cell are visited, and a center whose reach box
// excludes p costs no distance.
func (c *City) CongestionAt(p geo.Point, t rtec.Time) float64 {
	if !p.Valid() {
		return 0
	}
	hour := float64(t%(24*3600)) / 3600
	var best float64
	for _, i := range c.field.at(p) {
		h := &c.hotspots[i]
		if !h.reach.Contains(p) {
			continue
		}
		if v := contribution(p, h.center, h.radiusM, h.temporal(hour)); v > best {
			best = v
		}
	}
	daily := t % (24 * 3600)
	for i := range c.incidents {
		in := &c.incidents[i]
		temporal := in.intensityAt(daily)
		if temporal == 0 || !c.incidentBounds[i].reach.Contains(p) {
			continue
		}
		if v := contribution(p, in.Center, in.RadiusM, temporal); v > best {
			best = v
		}
	}
	if best > 1 {
		best = 1
	}
	return best
}

// IsCongested reports the ground-truth congestion state at a location
// and time: whether CongestionAt reaches CongestionTruthThreshold. It
// answers that question directly. The capped maximum reaches the
// threshold exactly when some contribution does, so it returns at the
// first such witness; and since the spatial decay is at most 1, a
// center whose temporal intensity is below the threshold, or whose
// witness box excludes p, is skipped before its distance is computed.
func (c *City) IsCongested(p geo.Point, t rtec.Time) bool {
	if !p.Valid() {
		return false
	}
	hour := float64(t%(24*3600)) / 3600
	for _, i := range c.field.at(p) {
		h := &c.hotspots[i]
		if !h.witness.Contains(p) {
			continue
		}
		if temporal := h.temporal(hour); temporal >= CongestionTruthThreshold &&
			contribution(p, h.center, h.radiusM, temporal) >= CongestionTruthThreshold {
			return true
		}
	}
	daily := t % (24 * 3600)
	for i := range c.incidents {
		if !c.incidentBounds[i].witness.Contains(p) {
			continue
		}
		in := &c.incidents[i]
		if temporal := in.intensityAt(daily); temporal >= CongestionTruthThreshold &&
			contribution(p, in.Center, in.RadiusM, temporal) >= CongestionTruthThreshold {
			return true
		}
	}
	return false
}
