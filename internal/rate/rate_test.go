package rate

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/rng"
)

var dst = frame.MACAddr{2, 0, 0, 0, 0, 9}

func TestFixed(t *testing.T) {
	mode := phy.Mode80211a()
	f := NewFixed(mode, 5)
	if got := f.SelectRate(dst, 1500, 0); got != 5 {
		t.Errorf("fixed rate = %d", got)
	}
	f.OnTxResult(dst, 5, false)
	f.OnTxResult(dst, 5, false)
	if got := f.SelectRate(dst, 1500, 3); got != 5 {
		t.Errorf("fixed rate moved to %d after failures", got)
	}
	if got := f.SelectRate(frame.Broadcast, 300, 0); got != mode.LowestBasic() {
		t.Errorf("broadcast rate = %d, want lowest basic", got)
	}
}

func TestARFStepsUpAfterSuccesses(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	start := a.SelectRate(dst, 1500, 0)
	if start != mode.LowestBasic() {
		t.Fatalf("ARF starts at %d", start)
	}
	for i := 0; i < 10; i++ {
		a.OnTxResult(dst, start, true)
	}
	if got := a.SelectRate(dst, 1500, 0); got != start+1 {
		t.Errorf("after 10 successes rate = %d, want %d", got, start+1)
	}
}

func TestARFStepsDownAfterTwoFailures(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	// Climb to the top.
	for r := 0; r < mode.NumRates(); r++ {
		cur := a.SelectRate(dst, 1500, 0)
		for i := 0; i < 10; i++ {
			a.OnTxResult(dst, cur, true)
		}
	}
	top := a.SelectRate(dst, 1500, 0)
	if top != mode.MaxRate() {
		t.Fatalf("did not reach top rate: %d", top)
	}
	a.OnTxResult(dst, top, false)
	if got := a.SelectRate(dst, 1500, 0); got != top {
		t.Errorf("single failure moved rate to %d", got)
	}
	a.OnTxResult(dst, top, false)
	if got := a.SelectRate(dst, 1500, 0); got != top-1 {
		t.Errorf("two failures: rate = %d, want %d", got, top-1)
	}
}

func TestARFProbeFailureFallsBackImmediately(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	cur := a.SelectRate(dst, 1500, 0)
	for i := 0; i < 10; i++ {
		a.OnTxResult(dst, cur, true)
	}
	probe := a.SelectRate(dst, 1500, 0)
	if probe != cur+1 {
		t.Fatalf("no step up")
	}
	// First frame at the new rate fails → immediate fallback.
	a.OnTxResult(dst, probe, false)
	if got := a.SelectRate(dst, 1500, 0); got != cur {
		t.Errorf("probe failure: rate = %d, want %d", got, cur)
	}
}

func TestARFNeverLeavesTable(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	// Hammer failures: rate must stay at 0, not underflow.
	for i := 0; i < 50; i++ {
		a.OnTxResult(dst, a.SelectRate(dst, 1500, 0), false)
	}
	if got := a.SelectRate(dst, 1500, 0); got != 0 {
		t.Errorf("rate after failure storm = %d", got)
	}
	// Hammer successes: must cap at max.
	for i := 0; i < 500; i++ {
		a.OnTxResult(dst, a.SelectRate(dst, 1500, 0), true)
	}
	if got := a.SelectRate(dst, 1500, 0); got != mode.MaxRate() {
		t.Errorf("rate after success storm = %d, want max", got)
	}
}

func TestAARFDoublesThreshold(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewAARF(mode)
	climb := func() phy.RateIdx {
		cur := a.SelectRate(dst, 1500, 0)
		for i := 0; i < 60; i++ {
			a.OnTxResult(dst, cur, true)
			if next := a.SelectRate(dst, 1500, 0); next != cur {
				return next
			}
		}
		return a.SelectRate(dst, 1500, 0)
	}
	base := a.SelectRate(dst, 1500, 0)
	up := climb()
	if up != base+1 {
		t.Fatalf("no initial step up")
	}
	// Fail the probe: fall back and double the threshold to 20.
	a.OnTxResult(dst, up, false)
	if got := a.state(dst).succNeeded; got != 20 {
		t.Errorf("threshold after failed probe = %d, want 20", got)
	}
	// 10 successes are no longer enough.
	cur := a.SelectRate(dst, 1500, 0)
	for i := 0; i < 10; i++ {
		a.OnTxResult(dst, cur, true)
	}
	if got := a.SelectRate(dst, 1500, 0); got != cur {
		t.Errorf("AARF stepped up after only 10 successes")
	}
	// Threshold caps at aarfStepUpCap.
	for i := 0; i < 10; i++ {
		cur = climb()
		a.OnTxResult(dst, cur, false)
	}
	if got := a.state(dst).succNeeded; got > aarfStepUpCap {
		t.Errorf("threshold %d exceeds cap %d", got, aarfStepUpCap)
	}
}

// driveController simulates a channel where rates <= good succeed and rates
// > good fail, and returns the distribution of selected rates.
func driveController(c interface {
	SelectRate(frame.MACAddr, int, int) phy.RateIdx
	OnTxResult(frame.MACAddr, phy.RateIdx, bool)
}, good phy.RateIdx, n int) map[phy.RateIdx]int {
	counts := make(map[phy.RateIdx]int)
	for i := 0; i < n; i++ {
		ri := c.SelectRate(dst, 1500, 0)
		counts[ri]++
		c.OnTxResult(dst, ri, ri <= good)
	}
	return counts
}

func TestSampleRateConvergesToGoodRate(t *testing.T) {
	mode := phy.Mode80211a()
	s := NewSampleRate(mode, rng.New(1))
	counts := driveController(s, 4, 2000) // rates 0..4 work, 5..7 fail
	// The plurality of selections must be the best working rate.
	bestCount := counts[4]
	for ri, c := range counts {
		if ri != 4 && c > bestCount {
			t.Fatalf("rate %d selected %d times > rate 4's %d", ri, c, bestCount)
		}
	}
	if counts[4] < 1000 {
		t.Errorf("rate 4 selected only %d of 2000", counts[4])
	}
}

func TestSampleRateProbes(t *testing.T) {
	mode := phy.Mode80211a()
	s := NewSampleRate(mode, rng.New(2))
	counts := driveController(s, 4, 2000)
	probes := 0
	for ri, c := range counts {
		if ri > 4 {
			probes += c
		}
	}
	if probes == 0 {
		t.Error("SampleRate never probed faster rates")
	}
	if probes > 400 {
		t.Errorf("SampleRate wasted %d of 2000 on failing probes", probes)
	}
}

func TestSampleRateRetryChainRobust(t *testing.T) {
	mode := phy.Mode80211a()
	s := NewSampleRate(mode, rng.New(3))
	if got := s.SelectRate(dst, 1500, 3); got != mode.LowestBasic() {
		t.Errorf("deep retry rate = %d, want lowest basic", got)
	}
}

func TestMinstrelConvergesToGoodRate(t *testing.T) {
	mode := phy.Mode80211a()
	m := NewMinstrel(mode, rng.New(4))
	counts := driveController(m, 5, 4000)
	if counts[5] < 2000 {
		t.Errorf("minstrel picked the best rate only %d of 4000: %v", counts[5], counts)
	}
}

func TestMinstrelSamplesRoughlyTenPercent(t *testing.T) {
	mode := phy.Mode80211a()
	m := NewMinstrel(mode, rng.New(5))
	counts := driveController(m, mode.MaxRate(), 5000) // everything succeeds
	nonBest := 0
	for ri, c := range counts {
		if ri != mode.MaxRate() {
			nonBest += c
		}
	}
	frac := float64(nonBest) / 5000
	// Sampling plus the convergence transient: expect ~10-25%.
	if frac < 0.05 || frac > 0.35 {
		t.Errorf("non-best selections = %.1f%%, want around 10-25%%", frac*100)
	}
}

func TestMinstrelRetryChain(t *testing.T) {
	mode := phy.Mode80211a()
	m := NewMinstrel(mode, rng.New(6))
	driveController(m, 5, 2000)
	st := m.state(dst)
	if got := m.SelectRate(dst, 1500, 1); got != st.best {
		t.Errorf("attempt 1 rate = %d, want best %d", got, st.best)
	}
	if got := m.SelectRate(dst, 1500, 2); got != st.secondBest {
		t.Errorf("attempt 2 rate = %d, want second best %d", got, st.secondBest)
	}
	if got := m.SelectRate(dst, 1500, 5); got != mode.LowestBasic() {
		t.Errorf("attempt 5 rate = %d, want lowest basic", got)
	}
}

func TestMinstrelAdaptsDownWhenChannelDegrades(t *testing.T) {
	mode := phy.Mode80211a()
	m := NewMinstrel(mode, rng.New(7))
	driveController(m, mode.MaxRate(), 2000)
	if m.state(dst).best != mode.MaxRate() {
		t.Fatalf("did not converge high first: best=%d", m.state(dst).best)
	}
	// Channel collapses: only rate 1 works now.
	driveController(m, 1, 4000)
	if got := m.state(dst).best; got > 1 {
		t.Errorf("after degradation best = %d, want <= 1", got)
	}
}

func TestControllersPerDestinationIsolation(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	dst2 := frame.MACAddr{2, 0, 0, 0, 0, 10}
	cur := a.SelectRate(dst, 1500, 0)
	for i := 0; i < 10; i++ {
		a.OnTxResult(dst, cur, true)
	}
	if a.SelectRate(dst, 1500, 0) == a.SelectRate(dst2, 1500, 0) {
		t.Error("destinations share ARF state")
	}
}

func TestNames(t *testing.T) {
	mode := phy.Mode80211b()
	src := rng.New(1)
	names := map[string]bool{}
	for _, n := range []string{
		NewFixed(mode, 0).Name(), NewARF(mode).Name(), NewAARF(mode).Name(),
		NewSampleRate(mode, src).Name(), NewMinstrel(mode, src).Name(),
	} {
		if n == "" || names[n] {
			t.Errorf("bad or duplicate controller name %q", n)
		}
		names[n] = true
	}
}
