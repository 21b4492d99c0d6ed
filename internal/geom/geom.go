// Package geom provides 2D geometry and node mobility models. Positions are
// in metres on a flat plane; an optional height coordinate supports
// antenna-height-sensitive propagation models (two-ray ground).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in metres. Z is height above ground.
type Point struct {
	X, Y, Z float64
}

// Pt is shorthand for a ground-level point at the default antenna height of
// 1.5 m, the conventional value for two-ray ground models.
func Pt(x, y float64) Point { return Point{X: x, Y: y, Z: 1.5} }

// Distance returns the 3D Euclidean distance between two points.
func (p Point) Distance(q Point) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// Add translates the point by a vector.
func (p Point) Add(v Vector) Point { return Point{p.X + v.X, p.Y + v.Y, p.Z + v.Z} }

func (p Point) String() string { return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y) }

// Vector is a displacement in metres (or a velocity in m/s, by context).
type Vector struct {
	X, Y, Z float64
}

// Scale multiplies the vector by s.
func (v Vector) Scale(s float64) Vector { return Vector{v.X * s, v.Y * s, v.Z * s} }

// Placement helpers used by scenario builders and experiments.

// Grid returns n points arranged row-major on a square-ish grid with the
// given spacing, centred at centre.
func Grid(n int, spacing float64, centre Point) []Point {
	if n <= 0 {
		return nil
	}
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	w := float64(cols-1) * spacing
	h := float64(rows-1) * spacing
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		r, c := i/cols, i%cols
		pts = append(pts, Point{
			X: centre.X - w/2 + float64(c)*spacing,
			Y: centre.Y - h/2 + float64(r)*spacing,
			Z: centre.Z,
		})
	}
	return pts
}

// Circle returns n points evenly spaced on a circle of radius r around
// centre. Handy for symmetric saturation experiments where every station
// must see the same channel.
func Circle(n int, r float64, centre Point) []Point {
	pts := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		theta := 2 * math.Pi * float64(i) / float64(n)
		pts = append(pts, Point{
			X: centre.X + r*math.Cos(theta),
			Y: centre.Y + r*math.Sin(theta),
			Z: centre.Z,
		})
	}
	return pts
}
