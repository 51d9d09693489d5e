// Package geo provides the geographic primitives used throughout the
// INSIGHT Dublin traffic system: WGS-84 points, haversine distances,
// the atemporal `close` predicate of the paper's CE definitions
// (Section 4.3), and bounding boxes for restricting street networks to
// a city window (Section 7.3).
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusMeters is the mean Earth radius used by Distance.
const EarthRadiusMeters = 6371000.0

// Point is a WGS-84 coordinate. The paper's events carry (Lon, Lat)
// pairs; field order here follows Go conventions (Lat first) but the
// constructors accept either.
type Point struct {
	Lat float64 // degrees, positive north
	Lon float64 // degrees, positive east
}

// At builds a Point from latitude and longitude in degrees.
func At(lat, lon float64) Point { return Point{Lat: lat, Lon: lon} }

// LonLat builds a Point from the (Lon, Lat) order used by the paper's
// event attributes, e.g. gps(Bus, Lon, Lat, Direction, Congestion).
func LonLat(lon, lat float64) Point { return Point{Lat: lat, Lon: lon} }

// String renders the point as "(lat, lon)".
func (p Point) String() string { return fmt.Sprintf("(%.5f, %.5f)", p.Lat, p.Lon) }

// Valid reports whether the point is within WGS-84 bounds.
func (p Point) Valid() bool {
	return p.Lat >= -90 && p.Lat <= 90 && p.Lon >= -180 && p.Lon <= 180 &&
		!math.IsNaN(p.Lat) && !math.IsNaN(p.Lon)
}

// Distance returns the haversine great-circle distance in meters
// between two points.
func Distance(a, b Point) float64 {
	const degToRad = math.Pi / 180
	lat1 := a.Lat * degToRad
	lat2 := b.Lat * degToRad
	dLat := (b.Lat - a.Lat) * degToRad
	dLon := (b.Lon - a.Lon) * degToRad

	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusMeters * math.Asin(math.Sqrt(h))
}

// Close is the paper's atemporal close/4 predicate: it computes the
// distance between two points and compares it against a threshold in
// meters. busCongestion and the (dis)agreement rules of Section 4.3
// use it to relate bus positions to SCATS intersections.
func Close(a, b Point, thresholdMeters float64) bool {
	return Distance(a, b) <= thresholdMeters
}

// Reach bounds how far apart, in degrees of latitude and of longitude,
// two valid WGS-84 points within meters of each other can lie when one of
// them is at most absLat degrees from the equator. The great-circle
// distance is never below the latitude difference; in longitude the
// haversine gives
//
//	sin(dLon/2) <= sin(angle/2) / sqrt(cos(lat1)·cos(lat2)),
//
// bounded with the smallest cosine such a pair can see: that of absLat
// pushed one distance poleward. A bound that does not hold — a distance
// of half the globe or more, a pair that may pass over a pole — is +Inf.
// Both are padded so that rounding in Distance at the threshold can never
// put a pair Close accepts outside them. The longitude bound assumes the
// pair does not straddle the antimeridian; that is the caller's to check.
func Reach(meters, absLat float64) (dLat, dLon float64) {
	const (
		degrees = 180 / math.Pi
		margin  = 1 + 1e-6
	)
	angle := meters / EarthRadiusMeters
	dLat, dLon = math.Inf(1), math.Inf(1)
	if angle < math.Pi {
		dLat = angle * degrees * margin
		poleward := absLat/degrees + angle
		if s := math.Sin(angle/2) / math.Cos(poleward); poleward < math.Pi/2 && s < 1 {
			dLon = 2 * math.Asin(s) * degrees * margin
		}
	}
	return dLat, dLon
}

// Box is a latitude/longitude bounding window.
type Box struct {
	MinLat, MinLon float64
	MaxLat, MaxLon float64
}

// Contains reports whether p lies inside the box (inclusive).
func (b Box) Contains(p Point) bool {
	return p.Lat >= b.MinLat && p.Lat <= b.MaxLat &&
		p.Lon >= b.MinLon && p.Lon <= b.MaxLon
}

// Center returns the box midpoint.
func (b Box) Center() Point {
	return Point{Lat: (b.MinLat + b.MaxLat) / 2, Lon: (b.MinLon + b.MaxLon) / 2}
}

// Expand grows the box by the given margins in degrees.
//
//lint:allow unusedapi the probe windows around Dublin that the dublin and citygraph tests draw
func (b Box) Expand(dLat, dLon float64) Box {
	return Box{
		MinLat: b.MinLat - dLat, MinLon: b.MinLon - dLon,
		MaxLat: b.MaxLat + dLat, MaxLon: b.MaxLon + dLon,
	}
}

// Dublin is the bounding window of Dublin city used by the synthetic
// street network and data generators (the paper restricts the
// OpenStreetMap network "to a bounding window of the size of the
// city", Section 7.3).
var Dublin = Box{
	MinLat: 53.30, MinLon: -6.40,
	MaxLat: 53.41, MaxLon: -6.15,
}

// Region is one of the four Dublin traffic areas the paper distributes
// CE recognition over: "in Dublin SCATS sensors are placed into the
// intersections of four geographical areas: central city, north city,
// west city and south city" (Section 7.1).
type Region int

// The four Dublin regions.
const (
	Central Region = iota
	North
	West
	South
	NumRegions // number of regions; keep last
)

// String returns the human-readable region name.
func (r Region) String() string {
	switch r {
	case Central:
		return "central"
	case North:
		return "north"
	case West:
		return "west"
	case South:
		return "south"
	}
	return fmt.Sprintf("region(%d)", int(r))
}

// RegionOf partitions the Dublin bounding window into the four areas:
// the central city is the middle of the window; the remainder is split
// into north, south and west by position. Points outside the window
// are assigned to the nearest region.
func RegionOf(p Point) Region {
	c := Dublin.Center()
	// Central: a window of ±0.02° lat, ±0.05° lon around the center.
	if math.Abs(p.Lat-c.Lat) <= 0.02 && math.Abs(p.Lon-c.Lon) <= 0.05 {
		return Central
	}
	if p.Lon < c.Lon-0.05 {
		return West
	}
	if p.Lat >= c.Lat {
		return North
	}
	return South
}
