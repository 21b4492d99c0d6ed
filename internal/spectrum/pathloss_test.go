package spectrum

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

func TestFreeSpaceKnownValue(t *testing.T) {
	// Friis at 2.4 GHz, 100 m: L = 20log10(4*pi*100/0.12492) ~ 80.1 dB.
	fs := FreeSpace{Freq: 2400 * units.MHz}
	l := fs.Loss(geom.Pt(0, 0), geom.Pt(100, 0))
	if math.Abs(float64(l)-80.05) > 0.3 {
		t.Errorf("free-space loss at 100 m = %v, want ~80 dB", l)
	}
}

func TestFreeSpace6dBPerDoubling(t *testing.T) {
	fs := FreeSpace{Freq: 2400 * units.MHz}
	l1 := fs.Loss(geom.Pt(0, 0), geom.Pt(50, 0))
	l2 := fs.Loss(geom.Pt(0, 0), geom.Pt(100, 0))
	if math.Abs(float64(l2-l1)-6.02) > 0.05 {
		t.Errorf("doubling distance added %v dB, want ~6.02", l2-l1)
	}
}

func TestFreeSpaceNearFieldClamp(t *testing.T) {
	fs := FreeSpace{Freq: 2400 * units.MHz}
	l0 := fs.Loss(geom.Pt(0, 0), geom.Pt(0.01, 0))
	l1 := fs.Loss(geom.Pt(0, 0), geom.Pt(1, 0))
	if l0 != l1 {
		t.Errorf("loss inside 1 m (%v) should clamp to the 1 m value (%v)", l0, l1)
	}
}

func TestLogDistanceReducesToFreeSpace(t *testing.T) {
	ld := NewLogDistance(2400*units.MHz, 2.0)
	fs := FreeSpace{Freq: 2400 * units.MHz}
	for _, d := range []float64{1, 10, 100, 300} {
		got := ld.Loss(geom.Pt(0, 0), geom.Pt(d, 0))
		want := fs.Loss(geom.Pt(0, 0), geom.Pt(d, 0))
		if math.Abs(float64(got-want)) > 0.01 {
			t.Errorf("exponent-2 log-distance at %vm = %v, free space = %v", d, got, want)
		}
	}
}

func TestLogDistanceExponent(t *testing.T) {
	ld := NewLogDistance(2400*units.MHz, 3.5)
	l10 := ld.Loss(geom.Pt(0, 0), geom.Pt(10, 0))
	l100 := ld.Loss(geom.Pt(0, 0), geom.Pt(100, 0))
	if math.Abs(float64(l100-l10)-35) > 0.01 {
		t.Errorf("decade added %v dB, want 35", l100-l10)
	}
}

func TestLossMonotonicInDistance(t *testing.T) {
	models := []PathLoss{
		FreeSpace{Freq: 2400 * units.MHz},
		NewLogDistance(2400*units.MHz, 3.0),
	}
	if err := quick.Check(func(aRaw, bRaw uint16) bool {
		da := 1 + float64(aRaw%2000)
		db := 1 + float64(bRaw%2000)
		if da > db {
			da, db = db, da
		}
		for _, m := range models {
			la := m.Loss(geom.Pt(0, 0), geom.Pt(da, 0))
			lb := m.Loss(geom.Pt(0, 0), geom.Pt(db, 0))
			if lb < la-1e-9 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMatrixLoss(t *testing.T) {
	ids := map[geom.Point]string{
		geom.Pt(0, 0):   "a",
		geom.Pt(100, 0): "b",
		geom.Pt(200, 0): "c",
	}
	m := MatrixLoss{
		Default: 60,
		Pairs: map[string]units.DB{
			PairKey("a", "c"): 200, // hidden pair
		},
		Resolver: func(p geom.Point) string { return ids[p] },
	}
	if l := m.Loss(geom.Pt(0, 0), geom.Pt(100, 0)); l != 60 {
		t.Errorf("default pair loss = %v, want 60", l)
	}
	if l := m.Loss(geom.Pt(0, 0), geom.Pt(200, 0)); l != 200 {
		t.Errorf("hidden pair loss = %v, want 200", l)
	}
	// Direction matters.
	if l := m.Loss(geom.Pt(200, 0), geom.Pt(0, 0)); l != 60 {
		t.Errorf("reverse pair loss = %v, want default 60", l)
	}
}

func TestShadowingConsistentPerLink(t *testing.T) {
	s := NewShadowing(rng.New(1), 6)
	g1 := s.Gain(42, 0)
	g2 := s.Gain(42, sim.Time(5*sim.Second))
	if g1 != g2 {
		t.Errorf("shadowing changed over time on one link: %v vs %v", g1, g2)
	}
	if s.Gain(43, 0) == g1 {
		t.Error("distinct links got identical shadowing (unlikely)")
	}
}

func TestShadowingMoments(t *testing.T) {
	s := NewShadowing(rng.New(2), 8)
	var sum, sumSq float64
	const n = 5000
	for i := uint64(0); i < n; i++ {
		g := float64(s.Gain(i, 0))
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if math.Abs(mean) > 0.5 {
		t.Errorf("shadowing mean = %v dB, want ~0", mean)
	}
	if math.Abs(std-8) > 0.5 {
		t.Errorf("shadowing stddev = %v dB, want ~8", std)
	}
}

func TestRayleighBlockConstant(t *testing.T) {
	r := NewRayleigh(rng.New(3), 10*sim.Millisecond)
	g1 := r.Gain(7, sim.Time(1*sim.Millisecond))
	g2 := r.Gain(7, sim.Time(9*sim.Millisecond))
	if g1 != g2 {
		t.Errorf("gain changed within one coherence block: %v vs %v", g1, g2)
	}
	g3 := r.Gain(7, sim.Time(11*sim.Millisecond))
	if g3 == g1 {
		t.Error("gain identical across blocks (unlikely)")
	}
}

// TestFadingBlockContract holds what Block promises for every in-tree
// process: instants with equal Block have equal Gain on every link (the
// medium keeps a link's gain on the strength of it), blocks are coherence
// intervals counted from zero, and a time-invariant process has one.
func TestFadingBlockContract(t *testing.T) {
	const coh = 3 * sim.Millisecond
	for name, f := range map[string]Fading{
		"none":     NoFading{},
		"shadow":   NewShadowing(rng.New(8), 6),
		"rayleigh": NewRayleigh(rng.New(8), coh),
		"rician":   NewRician(rng.New(8), 3, coh),
	} {
		_, fast := map[string]bool{"rayleigh": true, "rician": true}[name]
		changed := false
		for link := uint64(0); link < 8; link++ {
			prevBlock, prevGain := f.Block(0), f.Gain(link, 0)
			for at := sim.Time(0); at < sim.Time(20*coh); at += sim.Time(coh / 7) {
				b, g := f.Block(at), f.Gain(link, at)
				if want := uint64(at) / uint64(coh); fast && b != want || !fast && b != 0 {
					t.Fatalf("%s: Block(%v) = %d", name, at, b)
				}
				if b == prevBlock && g != prevGain {
					t.Fatalf("%s: link %d gain moved from %v to %v inside block %d", name, link, prevGain, g, b)
				}
				changed = changed || g != prevGain
				prevBlock, prevGain = b, g
			}
		}
		if changed != fast {
			t.Errorf("%s: gain changed over time = %v, want %v", name, changed, fast)
		}
	}
	for _, coherence := range []sim.Duration{0, -sim.Millisecond} {
		for name, build := range map[string]func(){
			"rayleigh": func() { NewRayleigh(rng.New(1), coherence) },
			"rician":   func() { NewRician(rng.New(1), 2, coherence) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted coherence %v", name, coherence)
					}
				}()
				build()
			}()
		}
	}
}

func TestRayleighMeanPowerUnity(t *testing.T) {
	r := NewRayleigh(rng.New(4), sim.Millisecond)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		g := r.Gain(uint64(i%16), sim.Time(i)*sim.Time(sim.Millisecond))
		sum += units.DB(g).Linear()
	}
	mean := sum / n
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("Rayleigh mean linear power = %v, want ~1", mean)
	}
}

func TestRicianApproachesNoFadingForLargeK(t *testing.T) {
	r := NewRician(rng.New(5), 100, sim.Millisecond)
	for i := 0; i < 1000; i++ {
		g := float64(r.Gain(uint64(i), sim.Time(i)*sim.Time(sim.Millisecond)))
		if math.Abs(g) > 3 {
			t.Fatalf("K=100 Rician produced %v dB fade, want near 0", g)
		}
	}
}

func TestRicianVarianceDecreasesWithK(t *testing.T) {
	variance := func(k float64) float64 {
		r := NewRician(rng.New(6), k, sim.Millisecond)
		var sum, sumSq float64
		const n = 5000
		for i := 0; i < n; i++ {
			g := float64(r.Gain(uint64(i), 0))
			sum += g
			sumSq += g * g
		}
		mean := sum / n
		return sumSq/n - mean*mean
	}
	v1, v10 := variance(1), variance(10)
	if v10 >= v1 {
		t.Errorf("Rician dB variance K=10 (%v) should be below K=1 (%v)", v10, v1)
	}
}

func TestCompositeModel(t *testing.T) {
	m := NewModel(FixedLoss{DB: 50}, nil, nil)
	p := m.RxPower(20, geom.Pt(0, 0), geom.Pt(10, 0), 1, 0)
	if p != units.DBm(-30) {
		t.Errorf("20 dBm through 50 dB loss = %v, want -30 dBm", p)
	}
}

func TestCompositeModelWithFading(t *testing.T) {
	m := NewModel(FixedLoss{DB: 50}, NewShadowing(rng.New(9), 4), NewRayleigh(rng.New(10), sim.Millisecond))
	// With fading the power varies around -30 dBm.
	var min, max units.DBm = 1000, -1000
	for i := 0; i < 200; i++ {
		p := m.RxPower(20, geom.Pt(0, 0), geom.Pt(10, 0), uint64(i), sim.Time(i)*sim.Time(sim.Millisecond))
		if p < min {
			min = p
		}
		if p > max {
			max = p
		}
	}
	if min >= -30 || max <= -30 {
		t.Errorf("fading did not straddle the deterministic level: min=%v max=%v", min, max)
	}
}

// MaxRange must be a conservative inversion: any distance within the
// returned range incurs at most maxLoss, and (beyond the near-field
// clamp) distances past it incur more. The medium's spatial index prunes
// with this bound, so an optimistic return would silently drop arrivals.
func TestMaxRangeConservative(t *testing.T) {
	bounders := []struct {
		name  string
		model interface {
			PathLoss
			RangeBounder
		}
	}{
		{"freespace", FreeSpace{Freq: 2412 * units.MHz}},
		{"logdist-2.4", NewLogDistance(2412*units.MHz, 2.4)},
		{"logdist-4", NewLogDistance(5200*units.MHz, 4.0)},
	}
	for _, b := range bounders {
		for maxLoss := units.DB(45); maxLoss <= 130; maxLoss += 7 {
			d := b.model.MaxRange(maxLoss)
			if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
				t.Fatalf("%s: MaxRange(%v) = %v", b.name, maxLoss, d)
			}
			// When the budget is below even the 1 m clamp loss, no
			// distance satisfies it and the clamped return is trivially a
			// superset; the tightness checks only apply when satisfiable.
			if b.model.Loss(geom.Pt(0, 0), geom.Pt(1, 0)) > maxLoss {
				continue
			}
			inside := b.model.Loss(geom.Pt(0, 0), geom.Pt(d/(1+1e-5), 0))
			if float64(inside) > float64(maxLoss) {
				t.Errorf("%s: loss %v just inside MaxRange(%v)=%.3fm exceeds the bound",
					b.name, inside, maxLoss, d)
			}
			if d > 2 { // beyond the 1 m near-field clamp
				outside := b.model.Loss(geom.Pt(0, 0), geom.Pt(d*1.05, 0))
				if float64(outside) <= float64(maxLoss) {
					t.Errorf("%s: loss %v at 1.05x MaxRange(%v) still within the bound — range not tight",
						b.name, outside, maxLoss)
				}
			}
		}
	}
}

// Degenerate bounder inputs: tiny loss budgets clamp to the 1 m near
// field, and a non-invertible log-distance exponent reports an unbounded
// range so the medium keeps spatial pruning off.
func TestMaxRangeEdgeCases(t *testing.T) {
	fs := FreeSpace{Freq: 2412 * units.MHz}
	if d := fs.MaxRange(-30); d < 1 || d > 1.001 {
		t.Errorf("free-space MaxRange(-30 dB) = %v, want the 1 m clamp", d)
	}
	flat := LogDistance{Freq: 2412 * units.MHz, Exponent: 0}
	if d := flat.MaxRange(100); !math.IsInf(d, 1) {
		t.Errorf("exponent-0 MaxRange = %v, want +Inf", d)
	}
	ld := NewLogDistance(2412*units.MHz, 3)
	if d := ld.MaxRange(10); d < 1 || d > 1.001 {
		t.Errorf("log-distance MaxRange below the reference loss = %v, want the 1 m reference clamp", d)
	}
}

// A fading draw derives its per-link, per-block stream on the stack.
func TestFadingGainZeroAlloc(t *testing.T) {
	for name, f := range map[string]Fading{
		"rayleigh": NewRayleigh(rng.New(5), 10*sim.Millisecond),
		"rician":   NewRician(rng.New(5), 4, 10*sim.Millisecond),
	} {
		link := uint64(0)
		allocs := testing.AllocsPerRun(1000, func() {
			link++
			f.Gain(link, sim.Time(link)*sim.Time(sim.Millisecond))
		})
		if allocs != 0 {
			t.Errorf("%s: Gain allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestLogDistanceLossSplit holds Loss, and the RefLoss/LossFrom pair the
// medium takes apart per transmission, bit for bit to the formula written out
// in one piece: the reference loss rounds with the transmitter's coordinates,
// so it is compared at positions, not as a constant.
func TestLogDistanceLossSplit(t *testing.T) {
	src := rng.New(24)
	for _, l := range []LogDistance{NewLogDistance(2412*units.MHz, 3), {Freq: 5180 * units.MHz, Exponent: 2.7, RefDist: 2.5}, {Freq: 2412 * units.MHz, Exponent: 4}} {
		for i := 0; i < 20000; i++ {
			tx := geom.Pt(src.Float64()*2000-1000, src.Float64()*2000-1000)
			rx := geom.Pt(tx.X+src.Float64()*400-200, tx.Y+src.Float64()*400-200)
			if i%100 == 0 {
				rx = tx // inside the reference distance
			}
			d, ref := tx.Distance(rx), l.RefDist
			if ref <= 0 {
				ref = 1
			}
			if d < ref {
				d = ref
			}
			want := FreeSpace{Freq: l.Freq}.Loss(tx, tx.Add(geom.Vector{X: ref})) + units.DB(10*l.Exponent*math.Log10(d/ref))
			if got, split := l.Loss(tx, rx), l.LossFrom(l.RefLoss(tx), tx, rx); got != want || split != want {
				t.Fatalf("%+v from %v to %v: Loss %v, LossFrom(RefLoss) %v, the formula %v", l, tx, rx, got, split, want)
			}
		}
	}
}
