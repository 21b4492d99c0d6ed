package phy

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the wall around ChunkBounds: the medium settles a frame by
// its draw against the folded brackets whenever they decide, so a bracket
// that misses ChunkSuccess by one ulp changes a frame's fate.

// knot returns the i-th Eb/N0 knot of berKnots.
func knot(i int) float64 { return math.Float64frombits(uint64(knotBase+i) << 48) }

// identityMode has Bandwidth = BitRate, so its SINR is its Eb/N0.
func identityMode(mod Modulation) *Mode {
	return &Mode{Name: mod.String(), Bandwidth: 1, Rates: []Rate{{BitRate: 1, Mod: mod}}}
}

// inBounds fails unless ChunkSuccess is the curves' answer bit for bit
// (sameAsReference) and lo ≤ ChunkSuccess ≤ hi, with (1, 1) exactly for an
// empty chunk and (0, 1) where ChunkSuccess is NaN. It reports whether the
// brackets are within 10⁻³ of each other.
func inBounds(t testing.TB, m *Mode, ri RateIdx, sinr float64, nBits int) bool {
	t.Helper()
	sameAsReference(t, m, ri, sinr, nBits)
	lo, hi := m.ChunkBounds(ri, sinr, nBits)
	p := m.ChunkSuccess(ri, sinr, nBits)
	var ok bool
	switch {
	case nBits <= 0:
		ok = lo == 1 && hi == 1
	case math.IsNaN(p):
		ok = lo == 0 && hi == 1
	default:
		ok = 0 <= lo && lo <= p && p <= hi && hi <= 1+1e-11
	}
	if !ok {
		t.Fatalf("%s rate %d sinr %v (%#x) bits %d: ChunkBounds = [%v, %v] (%#x, %#x), ChunkSuccess = %v (%#x)",
			m.Name, ri, sinr, math.Float64bits(sinr), nBits, lo, hi,
			math.Float64bits(lo), math.Float64bits(hi), p, math.Float64bits(p))
	}
	return hi-lo <= 1e-3
}

var boundBits = append([]int{2, 100, 1000, 12000}, edgeBits...)

func TestChunkBoundsContain(t *testing.T) {
	// Every knot of every modulation, and one ulp either side of it.
	for mod := ModDBPSK; mod <= ModQAM64; mod++ {
		m := identityMode(mod)
		for i := 0; i <= knotCount; i++ {
			for k := -1; k <= 1; k++ {
				for _, n := range boundBits {
					inBounds(t, m, 0, ulps(knot(i), k), n)
				}
			}
		}
	}
	edgeSINR := []float64{0, math.Copysign(0, -1), -1, -1e300, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	for _, m := range allModes() {
		for ri := RateIdx(-1); int(ri) <= m.NumRates(); ri++ {
			for _, n := range boundBits {
				for _, s := range edgeSINR {
					inBounds(t, m, ri, s, n)
				}
			}
		}
	}
	// A modulation outside the table cannot be bracketed.
	odd := &Mode{Name: "odd", Bandwidth: 1, Rates: []Rate{{BitRate: 1, Mod: ModQAM64 + 1}, {BitRate: 1, Mod: 255}}}
	for ri := RateIdx(0); ri < 2; ri++ {
		if lo, hi := odd.ChunkBounds(ri, 10, 100); lo != 0 || hi != 1 {
			t.Errorf("out-of-table modulation %v: ChunkBounds = [%v, %v], want [0, 1]", odd.Rates[ri].Mod, lo, hi)
		}
		inBounds(t, odd, ri, 10, 100)
	}

	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	src := rand.New(rand.NewSource(25))
	modes := allModes()
	narrow, dB := 0, 0
	for i := 0; i < draws; i++ {
		m := modes[src.Intn(len(modes))]
		ri := RateIdx(src.Intn(m.NumRates()+2) - 1)
		n := 1 + src.Intn(20000)
		if src.Intn(8) == 0 {
			n = edgeBits[src.Intn(len(edgeBits))]
		}
		switch src.Intn(8) {
		case 0:
			inBounds(t, m, ri, edgeSINR[src.Intn(len(edgeSINR))], n)
		case 1, 2: // on a knot, or an ulp off it
			inBounds(t, m, ri, ulps(knotSINR(m, ri, src.Intn(knotCount+1)), src.Intn(3)-1), n)
		default: // -40 … +60 dB
			dB++
			if inBounds(t, m, ri, math.Pow(10, src.Float64()*10-4), n) {
				narrow++
			}
		}
	}
	// Containment alone admits [0, 1] everywhere; the brackets must also
	// settle most receptions.
	frac := float64(narrow) / float64(dB)
	t.Logf("brackets within 10⁻³ of each other on %.4f of %d dB-range draws", frac, dB)
	if frac < 0.9 {
		t.Errorf("brackets within 10⁻³ of each other on %.3f of %d dB-range draws, want ≥ 0.9", frac, dB)
	}
}

func FuzzChunkBounds(f *testing.F) {
	modes := allModes()
	for mi, m := range modes {
		for ri := 0; ri < m.NumRates(); ri++ {
			for _, i := range []int{0, 100, 150, 200, knotCount} {
				s := knotSINR(m, RateIdx(ri), i)
				f.Add(uint8(mi), ri, s, 12000)
				f.Add(uint8(mi), ri, ulps(s, -1), 1<<15+1)
			}
		}
	}
	f.Add(uint8(1), 3, math.NaN(), 8000)
	f.Add(uint8(2), -1, math.Inf(1), 1<<20)
	f.Add(uint8(3), 0, -1.0, 1)
	f.Fuzz(func(t *testing.T, mi uint8, ri int, sinr float64, nBits int) {
		inBounds(t, modes[int(mi)%len(modes)], RateIdx(ri), sinr, nBits)
	})
}
