package phy

import (
	"math"

	"repro/internal/units"
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
// The curves are evaluated only where they decide something: above a
// per-modulation Eb/N0 knee (sureEbN0, measured from the curves at package
// init) a chunk of up to sureBits bits succeeds with probability exactly 1.0
// in float64, and ChunkSuccess says so without an erfc, a log1p or an exp.

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

// sureBits is the longest chunk the sure-success knees vouch for; it is
// above any 802.11 MPDU, and a longer chunk takes the curves.
const sureBits = 1 << 15

// sureEbN0 holds, per modulation, an Eb/N0 from which chunkSuccess of up to
// sureBits bits is bit-for-bit 1.0: the smallest such, bisected on
// chunkSuccess itself (non-decreasing in Eb/N0, non-increasing in the bit
// count), plus 5 % — at the knee that moves the BER tenfold, out of reach of
// ulp-level wobble in exp or erfc. Keyed by modulation, not by mode, so a
// Mode's Rates and Bandwidth stay mutable; only read after init.
var sureEbN0 = func() (knee [ModQAM64 + 1]float64) {
	for mod := range knee {
		lo, hi := 1e-3, 1e6 // chunkSuccess < 1 at lo, == 1 at hi
		for i := 0; i < 64; i++ {
			if mid := math.Sqrt(lo * hi); chunkSuccess(Modulation(mod), mid, sureBits) == 1 {
				hi = mid
			} else {
				lo = mid
			}
		}
		knee[mod] = hi * 1.05
	}
	return knee
}()

// ChunkSuccess returns the probability that nBits consecutive bits decode
// without error at the given SINR. The medium calls it once per
// constant-interference span of every locked reception. A NaN SINR and a
// modulation outside the knee table take the curves like any other.
//
//wlan:hotpath
func (m *Mode) ChunkSuccess(ri RateIdx, sinrLinear float64, nBits int) float64 {
	if nBits <= 0 {
		return 1
	}
	r := m.Rate(ri)
	ebN0 := sinrLinear * float64(m.Bandwidth) / float64(r.BitRate)
	if int(r.Mod) < len(sureEbN0) && ebN0 >= sureEbN0[r.Mod] && nBits <= sureBits {
		return 1
	}
	return chunkSuccess(r.Mod, ebN0, nBits)
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

// Sensitivity returns the approximate received power needed to achieve the
// target PER for a frame of mpduBytes at rate ri, assuming a noise floor
// set by the mode bandwidth and the given noise figure.
func (m *Mode) Sensitivity(ri RateIdx, mpduBytes int, targetPER float64, nf units.DB) units.DBm {
	sinr := m.SINRForPER(ri, mpduBytes, targetPER)
	return m.NoiseFloorDBm(nf).Add(units.DBFromLinear(sinr))
}
