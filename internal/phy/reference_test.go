package phy

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the wall in front of the curves: ChunkSuccess must return,
// bit for bit, what the curves return. A shortcut placed ahead of them may
// only skip an evaluation whose answer it knows to the bit.

// refChunkSuccess is ChunkSuccess spelled out: SINR → BER (with BER's own
// guards and clamp) → chunk success, always through the curves.
func refChunkSuccess(m *Mode, ri RateIdx, sinrLinear float64, nBits int) float64 {
	if nBits <= 0 {
		return 1
	}
	ber := 0.5
	if !(sinrLinear <= 0) {
		r := m.Rate(ri)
		ebN0 := sinrLinear * float64(m.Bandwidth) / float64(r.BitRate)
		ber = berForModulation(r.Mod, ebN0)
		if ber > 0.5 {
			ber = 0.5
		}
	}
	if ber <= 0 {
		return 1
	}
	if ber >= 0.5 {
		return math.Pow(0.5, float64(nBits))
	}
	return math.Exp(float64(nBits) * math.Log1p(-ber))
}

// sameAsReference reports a mismatch; NaN equals NaN of the same bits.
func sameAsReference(t testing.TB, m *Mode, ri RateIdx, sinr float64, nBits int) {
	t.Helper()
	got, want := m.ChunkSuccess(ri, sinr, nBits), refChunkSuccess(m, ri, sinr, nBits)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s rate %d sinr %v (%#x) bits %d: ChunkSuccess = %v, the curves say %v",
			m.Name, ri, sinr, math.Float64bits(sinr), nBits, got, want)
	}
}

// knotSINR is the linear SINR at which rate ri of m sits on the i-th Eb/N0
// knot of berKnots.
func knotSINR(m *Mode, ri RateIdx, i int) float64 {
	r := m.Rate(ri)
	return knot(i) * float64(r.BitRate) / float64(m.Bandwidth)
}

// ulps steps x by n representable values.
func ulps(x float64, n int) float64 {
	for ; n > 0; n-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; n < 0; n++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

var edgeBits = []int{0, 1, 1 << 15, 1<<15 + 1, 1 << 20}

func TestChunkSuccessMatchesReference(t *testing.T) {
	edgeSINR := []float64{0, math.Copysign(0, -1), -1, -1e300, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	// Every rate on every knot of its modulation, and one ulp either side:
	// the grid runs from Eb/N0 2⁻⁸, where the BER is near 0.5, to 2⁹, where
	// every chunk here succeeds with exactly 1.0.
	for _, m := range allModes() {
		for ri := RateIdx(-1); int(ri) <= m.NumRates(); ri++ {
			for _, n := range edgeBits {
				for i := 0; i <= knotCount; i++ {
					for k := -1; k <= 1; k++ {
						sameAsReference(t, m, ri, ulps(knotSINR(m, ri, i), k), n)
					}
				}
				for _, s := range edgeSINR {
					sameAsReference(t, m, ri, s, n)
				}
			}
		}
	}
	// BER keeps its own guard and clamp.
	if b := Mode80211b().BER(0, 0); b != 0.5 {
		t.Errorf("BER at SINR 0 = %v, want 0.5", b)
	}
	// A modulation outside the knot table takes the curves; it must not
	// index past the table.
	odd := &Mode{Name: "odd", Bandwidth: 1, Rates: []Rate{{BitRate: 1, Mod: ModQAM64 + 1}, {BitRate: 1, Mod: 255}}}
	for ri := RateIdx(0); ri < 2; ri++ {
		sameAsReference(t, odd, ri, 1e9, 100)
	}

	draws := 1 << 20
	if testing.Short() {
		draws = 1 << 16
	}
	src := rand.New(rand.NewSource(21))
	modes := allModes()
	for i := 0; i < draws; i++ {
		m := modes[src.Intn(len(modes))]
		ri := RateIdx(src.Intn(m.NumRates()+2) - 1)
		var sinr float64
		switch src.Intn(8) {
		case 0:
			sinr = edgeSINR[src.Intn(len(edgeSINR))]
		case 1, 2: // on a knot, or an ulp off it
			sinr = ulps(knotSINR(m, ri, src.Intn(knotCount+1)), src.Intn(3)-1)
		default: // -40 … +60 dB
			sinr = math.Pow(10, src.Float64()*10-4)
		}
		n := src.Intn(20000)
		if src.Intn(8) == 0 {
			n = edgeBits[src.Intn(len(edgeBits))]
		}
		sameAsReference(t, m, ri, sinr, n)
	}
}

// FuzzChunkSuccess holds ChunkSuccess alone to the curves, seeded on four
// knots of every rate. FuzzChunkBounds checks the same equality inside
// inBounds, beside the brackets, and is the PHY target CI mutates.
func FuzzChunkSuccess(f *testing.F) {
	modes := allModes()
	for mi, m := range modes {
		for ri := 0; ri < m.NumRates(); ri++ {
			for _, i := range []int{0, 150, 200, knotCount} {
				f.Add(uint8(mi), ri, knotSINR(m, RateIdx(ri), i), 12000)
			}
		}
	}
	f.Add(uint8(1), 3, math.NaN(), 8000)
	f.Add(uint8(2), -1, math.Inf(1), 0)
	f.Fuzz(func(t *testing.T, mi uint8, ri int, sinr float64, nBits int) {
		sameAsReference(t, modes[int(mi)%len(modes)], RateIdx(ri), sinr, nBits)
	})
}
