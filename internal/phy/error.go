package phy

import (
	"math"
)

// Reception error model: SINR → bit error rate → packet error rate.
//
// The model converts post-processing SINR to per-bit Eb/N0 through the
// bandwidth/bitrate ratio (which naturally credits low rates with their
// spreading/coding redundancy) and applies standard AWGN BER curves per
// modulation. This is the Yans/ns-class level of fidelity: absolute
// sensitivities land within a few dB of the standard's receiver minimums
// and, more importantly for MAC/driver studies, the *ordering* and
// *spacing* of the rate ladder is correct, so rate adaptation sees the
// right crossover structure. README.md's model-fidelity notes record this
// substitution.
//
// The curves are evaluated only where they decide something: ChunkBounds
// brackets ChunkSuccess from a table of the curves at fixed knots (berKnots)
// and a few multiplies; the medium compares its one uniform draw against the
// brackets first and asks for the exact value only when the draw lands
// between them.

// qfunc is the Gaussian tail function Q(x).
func qfunc(x float64) float64 {
	return 0.5 * math.Erfc(x/math.Sqrt2)
}

// berForModulation returns the bit error probability at a given linear
// per-bit SNR (Eb/N0).
//
//wlan:hotpath
func berForModulation(mod Modulation, ebN0 float64) float64 {
	if ebN0 <= 0 {
		return 0.5
	}
	switch mod {
	case ModDBPSK:
		return 0.5 * math.Exp(-ebN0)
	case ModDQPSK:
		// ~2.3 dB penalty relative to DBPSK.
		return 0.5 * math.Exp(-ebN0/2)
	case ModCCK55:
		// Empirical fit: slightly better per-bit than DQPSK at equal Eb/N0
		// thanks to the 8-chip code, worse than BPSK.
		return qfunc(math.Sqrt(1.5 * ebN0))
	case ModCCK11:
		return qfunc(math.Sqrt(0.8 * ebN0))
	case ModBPSK, ModQPSK:
		// Gray-coded coherent (D)PSK per-bit.
		return qfunc(math.Sqrt(2 * ebN0))
	case ModQAM16:
		return 0.75 * qfunc(math.Sqrt(0.8*ebN0))
	case ModQAM64:
		return (7.0 / 12.0) * qfunc(math.Sqrt(ebN0*18.0/63.0))
	}
	return 0.5
}

// BER returns the bit error rate for rate ri of mode m at the given linear
// SINR (signal power over noise-plus-interference power, both in the mode
// bandwidth).
//
//wlan:hotpath
func (m *Mode) BER(ri RateIdx, sinrLinear float64) float64 {
	if sinrLinear <= 0 {
		return 0.5
	}
	r := m.Rate(ri)
	return min(0.5, berForModulation(r.Mod, sinrLinear*float64(m.Bandwidth)/float64(r.BitRate)))
}

// ChunkSuccess returns the probability that nBits consecutive bits decode
// without error at the given SINR. The medium calls it for the
// constant-interference spans of a locked reception whose draw lands between
// ChunkBounds' brackets, and for each span folded out of a full record.
//
//wlan:hotpath
func (m *Mode) ChunkSuccess(ri RateIdx, sinrLinear float64, nBits int) float64 {
	if nBits <= 0 {
		return 1
	}
	r := m.Rate(ri)
	return chunkSuccess(r.Mod, sinrLinear*float64(m.Bandwidth)/float64(r.BitRate), nBits)
}

// The knots of berKnots are the Eb/N0 values 2^E·(1 + m/16) for E in
// [−8, 8] and m in [0, 15], plus 2⁹: a float's exponent and top four
// mantissa bits, bits>>48, index the interval it falls in, with no log.
const (
	knotBase  = (1023 - 8) << 4 // Float64bits(2⁻⁸) >> 48
	knotCount = 17 << 4         // intervals in [2⁻⁸, 2⁹)
	// knotMargin absorbs ulp-level non-monotonicity of erfc/exp between
	// knots; fpMargin the rounding of chunkSuccess's exp/log1p and of the
	// bounds' own arithmetic.
	knotMargin = 1e-9
	fpMargin   = 1e-12
)

// berKnots holds, per modulation, berForModulation at every knot; built once
// at init and only read after it. Keyed by modulation, not by mode, so a
// Mode's Rates and Bandwidth stay mutable.
var berKnots = func() (tab [ModQAM64 + 1][knotCount + 1]float64) {
	for mod := range tab {
		for i := range tab[mod] {
			tab[mod][i] = berForModulation(Modulation(mod), math.Float64frombits(uint64(knotBase+i)<<48))
		}
	}
	return tab
}()

// ChunkBounds brackets ChunkSuccess without evaluating the curves:
// lo ≤ ChunkSuccess(ri, sinrLinear, nBits) ≤ hi exactly as float64 computes
// it. It returns exactly (1, 1) for an empty chunk, and (0, 1) where it
// cannot say: a NaN SINR, a modulation outside the table.
//
//wlan:hotpath
func (m *Mode) ChunkBounds(ri RateIdx, sinrLinear float64, nBits int) (lo, hi float64) {
	if nBits <= 0 {
		return 1, 1
	}
	r := m.Rate(ri)
	if int(r.Mod) >= len(berKnots) {
		return 0, 1
	}
	ebN0 := sinrLinear * float64(m.Bandwidth) / float64(r.BitRate)
	// The curves fall as Eb/N0 rises (at most 0.5, at ebN0 ≤ 0), so the
	// knot at or below ebN0 bounds the BER from above, the next from below.
	knots := &berKnots[r.Mod]
	var berHi, berLo float64
	switch i := int(math.Float64bits(ebN0)>>48) - knotBase; {
	case uint(i) < knotCount:
		berHi, berLo = knots[i]*(1+knotMargin), knots[i+1]*(1-knotMargin)
	case ebN0 >= 1<<9: // +Inf included
		berHi, berLo = knots[knotCount]*(1+knotMargin), 0
	case ebN0 < 0x1p-8: // ≤ 0 and −Inf included
		berHi, berLo = 0.5, knots[0]*(1-knotMargin)
	default: // NaN
		return 0, 1
	}
	n := float64(nBits)
	// Bernoulli: (1 − b)ⁿ ≥ 1 − n·b.
	lo = max(0, (1-n*berHi)*(1-fpMargin))
	// (1 − b)ⁿ ≤ e^−nb ≤ 2^−k for every integer k ≤ n·b·log₂e, and 2⁻¹⁰²²
	// is the smallest normal power of two.
	k := min(n*berLo*(math.Log2E*(1-fpMargin)), 1022)
	hi = math.Float64frombits(uint64(1023-int(k))<<52) * (1 + fpMargin)
	return lo, hi
}

// chunkSuccess is ChunkSuccess past the rate lookup, from the curves.
//
//wlan:hotpath
func chunkSuccess(mod Modulation, ebN0 float64, nBits int) float64 {
	ber := berForModulation(mod, ebN0)
	if ber <= 0 {
		return 1
	}
	if ber >= 0.5 {
		return math.Pow(0.5, float64(nBits)) // effectively 0 for real frames
	}
	// (1-ber)^n computed in log space for numerical stability.
	return math.Exp(float64(nBits) * math.Log1p(-ber))
}

// PER returns the packet error rate for an mpdu of the given byte length at
// constant SINR.
func (m *Mode) PER(ri RateIdx, sinrLinear float64, mpduBytes int) float64 {
	return 1 - m.ChunkSuccess(ri, sinrLinear, 8*mpduBytes)
}

// SINRForPER inverts PER by bisection: the linear SINR at which a frame of
// mpduBytes at rate ri has the target PER. Used by experiments to compute
// theoretical operating ranges.
func (m *Mode) SINRForPER(ri RateIdx, mpduBytes int, targetPER float64) float64 {
	lo, hi := 1e-3, 1e6
	for i := 0; i < 200; i++ {
		mid := math.Sqrt(lo * hi)
		if m.PER(ri, mid, mpduBytes) > targetPER {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Sqrt(lo * hi)
}
