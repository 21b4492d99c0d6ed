package geom

import (
	"math"

	"repro/internal/sim"
)

// Mobility yields a node's position as a function of virtual time. Models
// are pure functions of time so the medium can sample positions lazily at
// transmission instants without a position-update event storm.
type Mobility interface {
	// PositionAt returns the node position at time t. t is nondecreasing
	// across calls in practice but implementations must tolerate repeats.
	PositionAt(t sim.Time) Point
}

// Static is a node that never moves.
type Static struct{ P Point }

// PositionAt implements Mobility.
func (s Static) PositionAt(sim.Time) Point { return s.P }

// Linear moves at constant velocity from a start point, forever.
type Linear struct {
	Start    Point
	Velocity Vector // metres per second
	T0       sim.Time
}

// PositionAt implements Mobility.
func (l Linear) PositionAt(t sim.Time) Point {
	dt := t.Sub(l.T0).Seconds()
	if dt < 0 {
		dt = 0
	}
	return l.Start.Add(l.Velocity.Scale(dt))
}

// OrbitMobility circles a centre point at constant angular velocity; useful
// for controlled time-varying-channel tests.
type OrbitMobility struct {
	Centre Point
	Radius float64
	Period sim.Duration // time for one revolution
}

// PositionAt implements Mobility.
func (o OrbitMobility) PositionAt(t sim.Time) Point {
	if o.Period <= 0 {
		return o.Centre.Add(Vector{X: o.Radius})
	}
	theta := 2 * math.Pi * float64(t) / float64(o.Period)
	return Point{
		X: o.Centre.X + o.Radius*math.Cos(theta),
		Y: o.Centre.Y + o.Radius*math.Sin(theta),
		Z: o.Centre.Z,
	}
}
