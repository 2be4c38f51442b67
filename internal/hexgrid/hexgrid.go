// Package hexgrid provides the cell geometry of the cellular simulator:
// axial-coordinate hexagonal cells, neighbourhood and ring enumeration,
// world <-> cell mapping, and the bearing math that turns a mobile's
// trajectory into the paper's "user angle" input.
//
// Cells are pointy-top hexagons addressed by axial coordinates (Q, R);
// see Amit Patel's hexagon pages for the conventions used here. World
// coordinates are metres.
package hexgrid

import (
	"fmt"
	"math"
)

// Coord is the axial coordinate of a hexagonal cell.
type Coord struct {
	Q int
	R int
}

// String renders the coordinate as "(q,r)".
func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.Q, c.R) }

// directions are the six axial neighbour offsets, starting east and
// proceeding counter-clockwise.
var directions = [6]Coord{
	{Q: 1, R: 0}, {Q: 1, R: -1}, {Q: 0, R: -1},
	{Q: -1, R: 0}, {Q: -1, R: 1}, {Q: 0, R: 1},
}

// Neighbors returns the six adjacent cells, starting east and proceeding
// counter-clockwise.
func (c Coord) Neighbors() [6]Coord {
	var out [6]Coord
	for i, d := range directions {
		out[i] = Coord{Q: c.Q + d.Q, R: c.R + d.R}
	}
	return out
}

// Add returns c translated by d.
func (c Coord) Add(d Coord) Coord { return Coord{Q: c.Q + d.Q, R: c.R + d.R} }

// Distance returns the hex-grid distance (minimum number of cell hops)
// between a and b.
func Distance(a, b Coord) int {
	dq := a.Q - b.Q
	dr := a.R - b.R
	ds := -dq - dr // cube coordinate s = -q-r
	return (abs(dq) + abs(dr) + abs(ds)) / 2
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Ring returns the cells at exactly the given hop distance from center, in
// counter-clockwise order; radius 0 returns just the center.
func Ring(center Coord, radius int) []Coord {
	if radius < 0 {
		return nil
	}
	if radius == 0 {
		return []Coord{center}
	}
	out := make([]Coord, 0, 6*radius)
	// Start radius steps along direction 4 (south-west), then walk each of
	// the six edges of the ring.
	c := center
	for i := 0; i < radius; i++ {
		c = c.Add(directions[4])
	}
	for side := 0; side < 6; side++ {
		for step := 0; step < radius; step++ {
			out = append(out, c)
			c = c.Add(directions[side])
		}
	}
	return out
}

// Disk returns all cells within the given hop distance of center
// (inclusive), ordered by increasing ring.
func Disk(center Coord, radius int) []Coord {
	if radius < 0 {
		return nil
	}
	out := make([]Coord, 0, 1+3*radius*(radius+1))
	for r := 0; r <= radius; r++ {
		out = append(out, Ring(center, r)...)
	}
	return out
}

// Layout maps between axial cell coordinates and world coordinates for
// pointy-top hexagons with the given circumradius (centre-to-corner
// distance) in metres.
type Layout struct {
	// Size is the hexagon circumradius in metres. Must be positive.
	Size float64
}

// NewLayout returns a Layout, panicking on a non-positive size: cell
// geometry is static configuration, so a bad value is a programming error.
func NewLayout(size float64) Layout {
	if size <= 0 || math.IsNaN(size) || math.IsInf(size, 0) {
		panic(fmt.Sprintf("hexgrid: invalid cell size %v", size))
	}
	return Layout{Size: size}
}

// Center returns the world coordinates of the cell's centre.
func (l Layout) Center(c Coord) (x, y float64) {
	x = l.Size * (math.Sqrt(3)*float64(c.Q) + math.Sqrt(3)/2*float64(c.R))
	y = l.Size * 1.5 * float64(c.R)
	return x, y
}

// Inradius returns the hexagon's inscribed-circle radius (half the
// centre-to-centre distance of adjacent cells). It is the single source of
// truth for every consumer that brackets a cell between its inscribed and
// circumscribed circles — the InCell fast path and the simulator's
// rejection-sampling bounding box — so the two can never drift apart.
func (l Layout) Inradius() float64 {
	return l.Size * math.Sqrt(3) / 2
}

// InCell reports whether the world point (x, y) certainly lies inside the
// given cell, by testing against the cell's inscribed circle. A false
// return means "maybe outside": the point is in the corner region where
// only full cube rounding (CellAt) can decide. Simulation tick loops use
// it as a cheap same-cell fast path.
func (l Layout) InCell(c Coord, x, y float64) bool {
	cx, cy := l.Center(c)
	dx, dy := x-cx, y-cy
	w := l.Inradius()
	return dx*dx+dy*dy < w*w
}

// CellAt returns the cell containing the world point (x, y), using
// fractional axial coordinates with cube rounding.
func (l Layout) CellAt(x, y float64) Coord {
	qf := (math.Sqrt(3)/3*x - y/3) / l.Size
	rf := (2.0 / 3 * y) / l.Size
	return roundAxial(qf, rf)
}

// roundAxial rounds fractional axial coordinates to the containing cell by
// rounding in cube space and fixing the coordinate with the largest error.
func roundAxial(qf, rf float64) Coord {
	sf := -qf - rf
	q := math.Round(qf)
	r := math.Round(rf)
	s := math.Round(sf)

	dq := math.Abs(q - qf)
	dr := math.Abs(r - rf)
	ds := math.Abs(s - sf)

	switch {
	case dq > dr && dq > ds:
		q = -r - s
	case dr > ds:
		r = -q - s
	}
	return Coord{Q: int(q), R: int(r)}
}

// NormalizeAngle maps an angle in degrees into (-180, 180].
func NormalizeAngle(deg float64) float64 {
	// math.Mod returns deg itself for |deg| < 360, so the common case (a
	// heading nudged by a small increment) skips the call.
	if !(deg > -360 && deg < 360) {
		deg = math.Mod(deg, 360)
	}
	switch {
	case deg > 180:
		return deg - 360
	case deg <= -180:
		return deg + 360
	default:
		return deg
	}
}

// BearingDeg returns the direction, in degrees measured counter-clockwise
// from the +x axis, from point (fromX, fromY) to point (toX, toY).
// The result is in (-180, 180]. If the points coincide the bearing is 0.
func BearingDeg(fromX, fromY, toX, toY float64) float64 {
	dx := toX - fromX
	dy := toY - fromY
	if dx == 0 && dy == 0 {
		return 0
	}
	return NormalizeAngle(math.Atan2(dy, dx) * 180 / math.Pi)
}

// AngleOff returns the paper's "user angle": the angle in (-180, 180]
// between a mobile's heading and the bearing from the mobile to a target
// (normally its serving base station). Zero means heading straight at the
// target; +/-180 means heading directly away.
func AngleOff(headingDeg, fromX, fromY, toX, toY float64) float64 {
	return NormalizeAngle(headingDeg - BearingDeg(fromX, fromY, toX, toY))
}
