package traffic

import (
	"math"

	"github.com/insight-dublin/insight/geo"
)

// closeGrid is the spatial index behind the close/4 predicate: the
// bounding box of the indexed points cut into a dense grid of cells at
// least one close threshold tall and wide, stored CSR-style — cell c
// holds the point indexes items[start[c]:start[c+1]], ascending, cells
// in row-major order. Two points within the threshold of each other lie
// in the same or in adjacent cells, so a lookup reads three contiguous
// runs of items (one per grid row) and never hashes or allocates.
type closeGrid struct {
	// reachLat/reachLon bound, in degrees, how far apart a close pair can
	// be along each axis; +Inf where no bound holds.
	reachLat, reachLon float64
	lat0, lon0         float64 // south-west corner of cell (0, 0)
	cellLat, cellLon   float64 // cell size in degrees, >= the reach; +Inf collapses the axis to one cell
	rows, cols         int
	start              []int32     // len rows*cols+1
	items              []int32     // point indexes, cell by cell
	pos                []geo.Point // pos[k] is the position of point items[k]
}

const (
	// cellMargin pads the cell size over the reach so rounding in the
	// cell arithmetic can never put a close pair two cells apart.
	cellMargin = 1.01
	// maxCellsPerPoint and minCells bound the grid: a registry whose
	// extent is huge relative to the threshold gets coarser cells (more
	// candidates per lookup, same answer) instead of an index larger
	// than the data.
	maxCellsPerPoint = 64
	minCells         = 1 << 12
)

// newCloseGrid indexes the intersections' positions (all valid WGS-84
// points) for the threshold.
func newCloseGrid(ins []Intersection, closeMeters float64) closeGrid {
	g := closeGrid{start: []int32{0}}
	if len(ins) == 0 {
		return g
	}
	minLat, maxLat := ins[0].Pos.Lat, ins[0].Pos.Lat
	minLon, maxLon := ins[0].Pos.Lon, ins[0].Pos.Lon
	for _, in := range ins[1:] {
		minLat, maxLat = math.Min(minLat, in.Pos.Lat), math.Max(maxLat, in.Pos.Lat)
		minLon, maxLon = math.Min(minLon, in.Pos.Lon), math.Max(maxLon, in.Pos.Lon)
	}
	g.lat0, g.lon0 = minLat, minLon

	// Every close pair has one end in the registry, so the registry's
	// extreme latitude bounds the pair (geo.Reach). Near a pole, or when
	// the padded extent reaches the antimeridian (where close pairs wrap
	// around), the longitude bound is void and the longitude axis
	// collapses to a single column.
	g.reachLat, g.reachLon = geo.Reach(closeMeters, math.Max(math.Abs(minLat), math.Abs(maxLat)))
	if !(minLon-g.reachLon*cellMargin >= -180 && maxLon+g.reachLon*cellMargin <= 180) {
		g.reachLon = math.Inf(1)
	}
	g.cellLat, g.cellLon = g.reachLat*cellMargin, g.reachLon*cellMargin
	budget := math.Max(minCells, maxCellsPerPoint*float64(len(ins)))
	for {
		rows := math.Floor((maxLat-g.lat0)/g.cellLat) + 1
		cols := math.Floor((maxLon-g.lon0)/g.cellLon) + 1
		if rows*cols <= budget {
			g.rows, g.cols = int(rows), int(cols)
			break
		}
		g.cellLat *= 2
		g.cellLon *= 2
	}

	// Counting sort of the point indexes by cell: ascending within each
	// cell because points are visited in index order.
	g.start = make([]int32, g.rows*g.cols+1)
	cells := make([]int32, len(ins))
	for i, in := range ins {
		row, col := g.cell(in.Pos)
		cells[i] = int32(int(row)*g.cols + int(col))
		g.start[cells[i]+1]++
	}
	for c := 1; c < len(g.start); c++ {
		g.start[c] += g.start[c-1]
	}
	g.items = make([]int32, len(ins))
	g.pos = make([]geo.Point, len(ins))
	next := append([]int32(nil), g.start[:len(g.start)-1]...)
	for i, c := range cells {
		g.items[next[c]], g.pos[next[c]] = int32(i), ins[i].Pos
		next[c]++
	}
	return g
}

// cell returns the (fractional-floored) grid row and column of p, which
// may lie outside the grid.
func (g *closeGrid) cell(p geo.Point) (row, col float64) {
	return math.Floor((p.Lat - g.lat0) / g.cellLat), math.Floor((p.Lon - g.lon0) / g.cellLon)
}

// AppendClose appends to dst the indexes (into Intersections) of the
// intersections within the close threshold of p, in ascending order,
// and returns the extended slice: the allocation-free form of CloseTo
// for per-event callers that reuse dst. The result is exactly the set
// geo.Close selects among all intersections; a p outside the WGS-84
// bounds (NaN and ±Inf included) is close to nothing.
func (r *Registry) AppendClose(dst []int32, p geo.Point) []int32 {
	g := &r.grid
	if len(g.items) == 0 || !p.Valid() {
		return dst
	}
	row, col := g.cell(p)
	if row < -1 || row > float64(g.rows) || col < -1 || col > float64(g.cols) {
		return dst
	}
	n := len(dst)
	colLo, colHi := max(int(col)-1, 0), min(int(col)+1, g.cols-1)
	for rr := max(int(row)-1, 0); rr <= min(int(row)+1, g.rows-1); rr++ {
		for k := g.start[rr*g.cols+colLo]; k < g.start[rr*g.cols+colHi+1]; k++ {
			// The per-axis bounds settle most of the candidates the three
			// cells hold without the haversine.
			q := g.pos[k]
			if math.Abs(p.Lat-q.Lat) <= g.reachLat && math.Abs(p.Lon-q.Lon) <= g.reachLon &&
				geo.Close(p, q, r.closeMeters) {
				dst = append(dst, g.items[k])
			}
		}
	}
	// Each grid row contributed an ascending run; the matches are a
	// handful, so an insertion sort merges them.
	for i := n + 1; i < len(dst); i++ {
		for j := i; j > n && dst[j] < dst[j-1]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}
