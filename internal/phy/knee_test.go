package phy

import (
	"math"
	"math/rand"
	"testing"
)

// This file is the wall around the sure-success knee: ChunkSuccess must
// return, bit for bit, what the curves return — the knee may only skip an
// evaluation whose answer is exactly 1.0.

// refChunkSuccess is ChunkSuccess as it stood before the knee: SINR → BER
// (with BER's own guards and clamp) → chunk success, always through the
// curves.
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

// kneeSINR is the linear SINR at which rate ri of m sits on its knee.
func kneeSINR(m *Mode, ri RateIdx) float64 {
	r := m.Rate(ri)
	return sureEbN0[r.Mod] * float64(r.BitRate) / float64(m.Bandwidth)
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

var edgeBits = []int{0, 1, sureBits, sureBits + 1, 1 << 20}

func TestChunkSuccessMatchesReference(t *testing.T) {
	edgeSINR := []float64{0, math.Copysign(0, -1), -1, -1e300, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64}
	// Every rate's knee: ±4 ulp of it, and a log grid a factor 4 either
	// side (a knee placed too low answers 1 where the curves do not).
	for _, m := range allModes() {
		for ri := RateIdx(-1); int(ri) <= m.NumRates(); ri++ {
			knee := kneeSINR(m, ri)
			for _, n := range edgeBits {
				for k := -4; k <= 4; k++ {
					sameAsReference(t, m, ri, ulps(knee, k), n)
				}
				for s := knee / 4; s < knee*4; s *= 1.003 {
					sameAsReference(t, m, ri, s, n)
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
	// A modulation outside the knee table takes the curves; it must not
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
		case 1, 2: // around this rate's knee
			sinr = kneeSINR(m, ri) * math.Exp(src.NormFloat64()/4)
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

// TestSureKneeTightAndMonotone holds what the init-time bisection leans on
// — per modulation the curves' chunk success does not fall as Eb/N0 rises
// nor rise as the chunk grows — and that each knee is the measured one: a
// chunk of sureBits bits is sure at the knee and not yet sure a factor 1.5
// below it.
func TestSureKneeTightAndMonotone(t *testing.T) {
	for mod := ModDBPSK; mod <= ModQAM64; mod++ {
		// Bandwidth = BitRate, so the reference's Eb/N0 is its SINR.
		m := &Mode{Name: mod.String(), Bandwidth: 1, Rates: []Rate{{BitRate: 1, Mod: mod}}}
		knee := sureEbN0[mod]
		if !(knee > 0) || math.IsInf(knee, 0) {
			t.Fatalf("%v: knee %v", mod, knee)
		}
		if p := refChunkSuccess(m, 0, knee, sureBits); p != 1 {
			t.Errorf("%v: %d bits at the knee Eb/N0 %v succeed with %v, want exactly 1", mod, sureBits, knee, p)
		}
		if p := refChunkSuccess(m, 0, knee/1.5, sureBits); !(p < 1) {
			t.Errorf("%v: %d bits at Eb/N0 %v, 1.5 below the knee, already succeed with %v: the knee is loose", mod, sureBits, knee/1.5, p)
		}
		for n := 1; n <= 1<<20; n *= 2 {
			prev := 0.0
			for e := knee / 8; e < knee*8; e *= 1.01 {
				p := refChunkSuccess(m, 0, e, n)
				if p < prev {
					t.Fatalf("%v, %d bits: success falls from %v to %v as Eb/N0 rises to %v", mod, n, prev, p, e)
				}
				if longer := refChunkSuccess(m, 0, e, 2*n); longer > p {
					t.Fatalf("%v at Eb/N0 %v: %d bits succeed with %v, %d with %v", mod, e, n, p, 2*n, longer)
				}
				prev = p
			}
		}
	}
}

func FuzzChunkSuccess(f *testing.F) {
	modes := allModes()
	for mi, m := range modes {
		for ri := 0; ri < m.NumRates(); ri++ {
			knee := kneeSINR(m, RateIdx(ri))
			f.Add(uint8(mi), ri, knee, sureBits)
			f.Add(uint8(mi), ri, ulps(knee, -1), sureBits)
			f.Add(uint8(mi), ri, knee, sureBits+1)
			f.Add(uint8(mi), ri, knee/1.05, 12000)
		}
	}
	f.Add(uint8(1), 3, math.NaN(), 8000)
	f.Add(uint8(2), -1, math.Inf(1), 0)
	f.Fuzz(func(t *testing.T, mi uint8, ri int, sinr float64, nBits int) {
		sameAsReference(t, modes[int(mi)%len(modes)], RateIdx(ri), sinr, nBits)
	})
}
