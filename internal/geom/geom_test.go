package geom

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestDistance(t *testing.T) {
	a := Point{0, 0, 0}
	b := Point{3, 4, 0}
	if d := a.Distance(b); d != 5 {
		t.Errorf("distance = %v, want 5", d)
	}
	c := Point{3, 4, 12}
	if d := a.Distance(c); d != 13 {
		t.Errorf("3D distance = %v, want 13", d)
	}
}

func TestGroundDistanceIgnoresHeight(t *testing.T) {
	a := Point{0, 0, 1.5}
	b := Point{3, 4, 30}
	if d := a.GroundDistance(b); d != 5 {
		t.Errorf("ground distance = %v, want 5", d)
	}
}

func TestDistanceSymmetric(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by int16) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		return math.Abs(a.Distance(b)-b.Distance(a)) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequality(t *testing.T) {
	if err := quick.Check(func(ax, ay, bx, by, cx, cy int8) bool {
		a := Pt(float64(ax), float64(ay))
		b := Pt(float64(bx), float64(by))
		c := Pt(float64(cx), float64(cy))
		return a.Distance(c) <= a.Distance(b)+b.Distance(c)+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVectorUnit(t *testing.T) {
	v := Vector{3, 4, 0}
	u := v.Unit()
	if math.Abs(u.Length()-1) > 1e-12 {
		t.Errorf("unit length = %v", u.Length())
	}
	if z := (Vector{}).Unit(); z.Length() != 0 {
		t.Errorf("zero vector unit = %v", z)
	}
}

func TestGridCountAndSpacing(t *testing.T) {
	pts := Grid(9, 10, Pt(0, 0))
	if len(pts) != 9 {
		t.Fatalf("grid has %d points, want 9", len(pts))
	}
	// 3x3 grid centred at origin: corners at (+-10, +-10).
	if pts[0].X != -10 || pts[0].Y != -10 {
		t.Errorf("first grid point at (%v,%v), want (-10,-10)", pts[0].X, pts[0].Y)
	}
	if pts[8].X != 10 || pts[8].Y != 10 {
		t.Errorf("last grid point at (%v,%v), want (10,10)", pts[8].X, pts[8].Y)
	}
	if Grid(0, 1, Pt(0, 0)) != nil {
		t.Error("Grid(0) should be nil")
	}
}

func TestCircleEquidistant(t *testing.T) {
	centre := Pt(5, 5)
	pts := Circle(8, 20, centre)
	if len(pts) != 8 {
		t.Fatalf("circle has %d points, want 8", len(pts))
	}
	for i, p := range pts {
		if d := p.Distance(centre); math.Abs(d-20) > 1e-9 {
			t.Errorf("point %d at distance %v, want 20", i, d)
		}
	}
}

func TestLine(t *testing.T) {
	pts := Line(4, Pt(0, 0), Vector{X: 2}, 5) // direction normalised
	for i, p := range pts {
		if math.Abs(p.X-float64(i)*5) > 1e-9 || p.Y != 0 {
			t.Errorf("line point %d = %v", i, p)
		}
	}
}

func TestStaticMobility(t *testing.T) {
	m := Static{P: Pt(1, 2)}
	if p := m.PositionAt(sim.Time(5 * sim.Second)); p != Pt(1, 2) {
		t.Errorf("static moved to %v", p)
	}
}

func TestLinearMobility(t *testing.T) {
	m := Linear{Start: Pt(0, 0), Velocity: Vector{X: 2}} // 2 m/s east
	p := m.PositionAt(sim.Time(3 * sim.Second))
	if math.Abs(p.X-6) > 1e-9 {
		t.Errorf("linear at t=3s: x=%v, want 6", p.X)
	}
	// Before T0 it holds the start.
	m2 := Linear{Start: Pt(0, 0), Velocity: Vector{X: 2}, T0: sim.Time(10 * sim.Second)}
	if p := m2.PositionAt(sim.Time(5 * sim.Second)); p.X != 0 {
		t.Errorf("linear before T0 moved: %v", p)
	}
}

func TestOrbit(t *testing.T) {
	o := OrbitMobility{Centre: Pt(0, 0), Radius: 10, Period: sim.Duration(4 * sim.Second)}
	p0 := o.PositionAt(0)
	if math.Abs(p0.X-10) > 1e-9 {
		t.Errorf("orbit t=0: %v, want (10,0)", p0)
	}
	pQuarter := o.PositionAt(sim.Time(1 * sim.Second))
	if math.Abs(pQuarter.Y-10) > 1e-9 || math.Abs(pQuarter.X) > 1e-9 {
		t.Errorf("orbit t=T/4: %v, want (0,10)", pQuarter)
	}
	// Distance from centre is invariant.
	for s := 0; s < 10; s++ {
		p := o.PositionAt(sim.Time(s) * sim.Time(sim.Second) / 3)
		if math.Abs(p.Distance(o.Centre)-10) > 1e-9 {
			t.Errorf("orbit left its radius at %v", p)
		}
	}
}
