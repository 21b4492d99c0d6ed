package analytical

import (
	"math"
	"testing"

	"repro/internal/phy"
)

func params(rts bool) BianchiParams {
	return BianchiParams{
		Mode:         phy.Mode80211b(),
		DataRate:     3, // 11 Mbit/s
		PayloadBytes: 1500,
		RTS:          rts,
	}
}

func TestBianchiFixedPointSanity(t *testing.T) {
	for _, n := range []int{1, 2, 5, 10, 20, 50} {
		r := Bianchi(n, params(false))
		if r.Tau <= 0 || r.Tau > 1 {
			t.Errorf("n=%d: tau=%v out of range", n, r.Tau)
		}
		if r.P < 0 || r.P >= 1 {
			t.Errorf("n=%d: p=%v out of range", n, r.P)
		}
		if n == 1 && r.P != 0 {
			t.Errorf("single station collision probability = %v", r.P)
		}
	}
}

func TestBianchiCollisionGrowsWithN(t *testing.T) {
	prev := -1.0
	for _, n := range []int{2, 5, 10, 20, 50} {
		r := Bianchi(n, params(false))
		if r.P <= prev {
			t.Errorf("p(n=%d)=%v not increasing", n, r.P)
		}
		prev = r.P
	}
}

func TestBianchiThroughputDecreasesWithN(t *testing.T) {
	// Saturation throughput decays slowly with n for basic access.
	s5 := Bianchi(5, params(false)).Throughput
	s50 := Bianchi(50, params(false)).Throughput
	if s50 >= s5 {
		t.Errorf("throughput should decay: S(5)=%v S(50)=%v", s5, s50)
	}
}

func TestBianchiRTSFlatterThanBasic(t *testing.T) {
	// Bianchi's classic setup: slow PHY, large payload. There collisions
	// cost a full 12 ms data frame under basic access but only a short RTS
	// under RTS/CTS, so the RTS curve overtakes basic as n grows.
	slow := BianchiParams{Mode: phy.Mode80211(), DataRate: 0, PayloadBytes: 1500}
	basic50 := Bianchi(50, slow).Throughput
	slow.RTS = true
	rts50 := Bianchi(50, slow).Throughput
	if rts50 <= basic50 {
		t.Errorf("at n=50 (1 Mbit/s) RTS (%v) should beat basic (%v)", rts50, basic50)
	}
	// At n=1 RTS overhead makes it slower.
	slow.RTS = false
	basic1 := Bianchi(1, slow).Throughput
	slow.RTS = true
	rts1 := Bianchi(1, slow).Throughput
	if rts1 >= basic1 {
		t.Errorf("at n=1 basic (%v) should beat RTS (%v)", basic1, rts1)
	}
}

func TestBianchi11bLongPreambleRTSNeverPays(t *testing.T) {
	// Ablation: at 11 Mbit/s with the long DSSS preamble, every control
	// frame costs a 192 µs PLCP — RTS/CTS stays below basic access even at
	// n=50. This asymmetry versus the slow-PHY case is a known effect.
	basic := Bianchi(50, params(false)).Throughput
	rts := Bianchi(50, params(true)).Throughput
	if rts >= basic {
		t.Errorf("11b long-preamble RTS (%v) unexpectedly beat basic (%v)", rts, basic)
	}
}

func TestBianchiAbsoluteRange(t *testing.T) {
	// 11 Mbit/s, 1500B payload, 10 stations: literature puts saturation
	// goodput in the 5.5-7.5 Mbit/s band (long preamble DSSS).
	s := Bianchi(10, params(false)).Throughput
	if s < 4e6 || s > 8.5e6 {
		t.Errorf("S(10) = %.2f Mbit/s, expected 4-8.5", s/1e6)
	}
	// Single station: bounded by pure protocol overhead, roughly 6-8.5.
	s1 := Bianchi(1, params(false)).Throughput
	if s1 < 5e6 || s1 > 9e6 {
		t.Errorf("S(1) = %.2f Mbit/s, expected 5-9", s1/1e6)
	}
	if s1 >= 11e6 {
		t.Error("throughput exceeds the line rate")
	}
}

func TestBianchiCWminEffect(t *testing.T) {
	// Small CWmin at high n collapses throughput (collision storm).
	p := params(false)
	p.CWmin, p.CWmax = 7, 7
	small := Bianchi(30, p).Throughput
	p.CWmin, p.CWmax = 255, 1023
	large := Bianchi(30, p).Throughput
	if small >= large {
		t.Errorf("CW=7 at n=30 (%v) should underperform CW=255 (%v)", small, large)
	}
}

func TestBianchiTau1Station(t *testing.T) {
	// For n=1, tau = 2/(W+1) with W = CWmin+1.
	r := Bianchi(1, params(false))
	w := float64(phy.Mode80211b().CWmin + 1)
	want := 2 / (w + 1)
	if math.Abs(r.Tau-want) > 1e-9 {
		t.Errorf("tau(1) = %v, want %v", r.Tau, want)
	}
}

func TestAlohaLaws(t *testing.T) {
	// Peaks at the textbook points.
	if s := PureAlohaS(0.5); math.Abs(s-0.5*math.Exp(-1)) > 1e-12 {
		t.Errorf("pure peak = %v", s)
	}
	if s := SlottedAlohaS(1); math.Abs(s-math.Exp(-1)) > 1e-12 {
		t.Errorf("slotted peak = %v", s)
	}
	// Monotone increase before the peak, decrease after.
	if PureAlohaS(0.1) >= PureAlohaS(0.5) || PureAlohaS(2) >= PureAlohaS(0.5) {
		t.Error("pure ALOHA not unimodal around 0.5")
	}
}
