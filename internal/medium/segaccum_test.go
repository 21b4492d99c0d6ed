package medium

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// nseg mirrors the seed's append-only segment record: one entry per
// constant-interference span of a locked reception.
type nseg struct {
	from     sim.Time
	interfMW float64
}

// naiveTimeline is the reference implementation the segAccum fold replaced:
// append every boundary (overwriting same-instant changes), then walk the
// whole list at lock end. It reproduces the seed's finishLock arithmetic
// operation for operation.
type naiveTimeline struct {
	segs []nseg
}

func (n *naiveTimeline) begin(now sim.Time, interfMW float64) {
	n.segs = append(n.segs[:0], nseg{from: now, interfMW: interfMW})
}

func (n *naiveTimeline) boundary(now sim.Time, interfMW float64) {
	last := &n.segs[len(n.segs)-1]
	if last.from == now {
		last.interfMW = interfMW
		return
	}
	n.segs = append(n.segs, nseg{from: now, interfMW: interfMW})
}

func (n *naiveTimeline) finish(mode *phy.Mode, rate phy.RateIdx, bits int,
	airtime sim.Duration, sigMW, noiseMW float64, end sim.Time) (success, minLin float64, spans int) {
	success = 1.0
	minLin = math.Inf(1)
	for i, seg := range n.segs {
		segEnd := end
		if i+1 < len(n.segs) {
			segEnd = n.segs[i+1].from
		}
		dur := segEnd.Sub(seg.from)
		if dur <= 0 {
			continue
		}
		sinr := sigMW / (noiseMW + seg.interfMW)
		b := int(float64(bits) * float64(dur) / float64(airtime))
		success *= mode.ChunkSuccess(rate, sinr, b)
		if sinr < minLin {
			minLin = sinr
		}
		spans++
	}
	return success, minLin, spans
}

// lockedRadio builds a bare Radio holding a fake lock, enough to drive the
// segAccum fold directly (no kernel, no medium).
func lockedRadio(mode *phy.Mode, rate phy.RateIdx, wireBytes int, sigMW, noiseMW float64) *Radio {
	t := &transmission{
		mode:    mode,
		rate:    rate,
		bits:    wireBytes * 8,
		airtime: mode.Airtime(rate, wireBytes),
	}
	return &Radio{
		noiseFloorMW: noiseMW,
		lock:         &arrival{t: t, powerMW: sigMW},
	}
}

// TestSegAccumMatchesNaiveTimeline drives random interferer start/end
// sequences — including same-instant bursts, zero-power arrivals, equal
// adjacent levels and more closed spans than the accumulator records —
// through the accumulator and the naive append-only timeline, and requires
// on every trial that the decision equals u < the naive product for u at 0,
// 2⁻⁵³, the product itself, one ulp either side of it and 64 seeded
// uniforms, and that the minimum SINR is bit-identical.
func TestSegAccumMatchesNaiveTimeline(t *testing.T) {
	rnd := rand.New(rand.NewSource(1))
	var overflowed, lost, sure int
	for _, mode := range []*phy.Mode{phy.Mode80211b(), phy.Mode80211a()} {
		noiseMW := mode.NoiseFloorDBm(7).MilliWatt()
		for trial := 0; trial < 1000; trial++ {
			wireBytes := 100 + rnd.Intn(2000)
			rate := phy.RateIdx(rnd.Intn(mode.NumRates()))
			sigMW := math.Pow(10, rnd.Float64()*6-9) // -90..-30 dBm
			r := lockedRadio(mode, rate, wireBytes, sigMW, noiseMW)
			airtime := r.lock.t.airtime

			// Random interferer activity: powers toggle on/off at random
			// times through the lock; occasionally two edges land on the
			// same instant, and some interferers carry zero power
			// (below-detection arrivals).
			type edge struct {
				at    sim.Time
				level float64
			}
			nEdges := rnd.Intn(4 * len(r.seg.spans))
			start := sim.Time(1000)
			edges := make([]edge, 0, nEdges)
			active := 0.0
			at := start
			for i := 0; i < nEdges; i++ {
				step := sim.Duration(rnd.Int63n(2 * int64(airtime) / int64(nEdges+1)))
				if rnd.Intn(5) != 0 { // 1-in-5 edges land on the same instant
					at = at.Add(step)
				}
				if at > start.Add(airtime) {
					break
				}
				switch rnd.Intn(3) {
				case 0:
					active += math.Pow(10, rnd.Float64()*6-10)
				case 1:
					active *= 0.5
				case 2:
					// A zero-power arrival: boundary with an unchanged
					// level.
				}
				edges = append(edges, edge{at: at, level: active})
			}
			end := start.Add(airtime)

			naive := &naiveTimeline{}
			naive.begin(start, 0)
			r.seg.begin(start, 0)
			for _, e := range edges {
				naive.boundary(e.at, e.level)
				r.seg.boundary(e.at, e.level, r)
			}
			want, wantM, spans := naive.finish(mode, rate, r.lock.t.bits, airtime, sigMW, noiseMW, end)
			r.foldSpan(end)
			if spans > len(r.seg.spans) {
				overflowed++
			}
			switch want {
			case 0:
				lost++
			case 1:
				sure++
			}

			us := []float64{0, 0x1p-53, want, math.Nextafter(want, 0), math.Nextafter(want, 2)}
			for range 64 {
				us = append(us, rnd.Float64())
			}
			for _, u := range us {
				if got := r.seg.decoded(u, r.lock.t); got != (u < want) {
					t.Fatalf("%s trial %d (%d edges): decoded(%v) = %v, the naive product is %v (%#x)",
						mode.Name, trial, len(edges), u, got, want, math.Float64bits(want))
				}
			}
			if gotM := r.seg.minLin; math.Float64bits(gotM) != math.Float64bits(wantM) {
				t.Fatalf("%s trial %d: min SINR drifted: fold=%g naive=%g (%d edges)",
					mode.Name, trial, gotM, wantM, len(edges))
			}
		}
	}
	// The walls the trials must have reached: the overflow fold, frames
	// certainly lost (product 0, where u = 0 must not decode) and certainly
	// fine (product 1).
	t.Logf("2000 trials: %d past the record, %d with product 0, %d with product 1", overflowed, lost, sure)
	if overflowed < 100 || lost < 100 || sure < 100 {
		t.Fatalf("trials reached the overflow fold %d times, a zero product %d, a product of one %d; want 100 each",
			overflowed, lost, sure)
	}
}

// The fold keeps O(1) state per radio no matter how many interferers come
// and go during a lock — the bound the seed's append-only slice lacked.
func TestSegAccumConstantMemory(t *testing.T) {
	mode := phy.Mode80211b()
	r := lockedRadio(mode, 3, 1500, 1e-6, 1e-9)
	r.seg.begin(0, 0)
	allocs := testing.AllocsPerRun(1, func() {
		for i := 1; i <= 100000; i++ {
			r.seg.boundary(sim.Time(i), float64(i%13)*1e-9, r)
		}
	})
	if allocs != 0 {
		t.Fatalf("segment fold allocates %v per 100k boundaries, want 0", allocs)
	}
}
