package rate

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/rng"
)

// The controllers must satisfy the MAC's interface structurally.
var (
	_ mac.RateController = (*Fixed)(nil)
	_ mac.RateController = (*ARF)(nil)
	_ mac.RateController = (*SampleRate)(nil)
	_ mac.RateController = (*Minstrel)(nil)
)

// Steady-state rate decisions must be allocation-free: per-peer state lives
// in a frame.Peers table of values (not a map of pointers), and SampleRate's probe-candidate
// list is built in a reusable scratch buffer. One "decision" here is the
// full MAC-visible cycle — SelectRate for the attempt plus OnTxResult for
// its outcome — after a warm-up that establishes the peer state; one run
// makes perRun of them.
func testDecisionZeroAlloc(t *testing.T, name string, rc mac.RateController, perRun int) {
	t.Helper()
	peers := []frame.MACAddr{
		{2, 0, 0, 0, 0, 1},
		{2, 0, 0, 0, 0, 2},
	}
	// Warm-up: create peer state, populate stats, cross rate boundaries.
	for i := 0; i < 400; i++ {
		for _, p := range peers {
			ri := rc.SelectRate(p, 1500, i%3)
			rc.OnTxResult(p, ri, i%5 != 0)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		for range perRun {
			p := peers[i%len(peers)]
			ri := rc.SelectRate(p, 1500, 0)
			rc.OnTxResult(p, ri, i%7 != 0)
			i++
		}
	})
	if allocs != 0 {
		t.Fatalf("%s: steady-state rate decision allocates %v/op, want 0", name, allocs)
	}
}

func TestARFDecisionZeroAlloc(t *testing.T) {
	testDecisionZeroAlloc(t, "arf", NewARF(phy.Mode80211b()), 1)
}

func TestAARFDecisionZeroAlloc(t *testing.T) {
	testDecisionZeroAlloc(t, "aarf", NewAARF(phy.Mode80211a()), 1)
}

func TestSampleRateDecisionZeroAlloc(t *testing.T) {
	testDecisionZeroAlloc(t, "samplerate", NewSampleRate(phy.Mode80211g(), rng.New(3)), 1)
}

// Minstrel folds a peer's window into its EWMAs (updateStats) once every
// statsWindow results, and AllocsPerRun rounds down to whole allocations per
// run: one run here is a full window for each of the two peers, so an
// allocation in the update shows.
func TestMinstrelDecisionZeroAlloc(t *testing.T) {
	m := NewMinstrel(phy.Mode80211g(), rng.New(4))
	testDecisionZeroAlloc(t, "minstrel", m, 2*statsWindow)
}

func TestFixedDecisionZeroAlloc(t *testing.T) {
	testDecisionZeroAlloc(t, "fixed", NewFixed(phy.Mode80211b(), 3), 1)
}

// Per-peer stats are inlined ([maxRates]rateStat arrays in the peer
// records), so even FIRST contact with a new peer must not allocate — the
// regression this pins is the old per-peer make([]rateStat, NumRates), one
// allocation per controller per run. The table's append doubling is the one
// (amortised) allocation that legitimately remains: six arrays double 36
// times over the 63 measured runs, which AllocsPerRun's whole-number
// average rounds to 0.
func TestPeerFirstContactZeroAlloc(t *testing.T) {
	const nPeers = 64
	s := NewSampleRate(phy.Mode80211g(), rng.New(6))
	m := NewMinstrel(phy.Mode80211g(), rng.New(7))
	a := NewARF(phy.Mode80211b())

	i := 0
	allocs := testing.AllocsPerRun(nPeers-1, func() {
		p := frame.MACAddr{2, 0, 0, 0, 1, byte(i)}
		i++
		for _, rc := range []mac.RateController{s, m, a} {
			ri := rc.SelectRate(p, 1500, 0)
			rc.OnTxResult(p, ri, true)
		}
	})
	if allocs != 0 {
		t.Fatalf("first contact with a new peer allocates %v/op, want 0", allocs)
	}
}

// Minstrel's windowed stats update runs every statsWindow results; it must fold
// in place without allocating, even right on the update boundary.
func TestMinstrelWindowUpdateZeroAlloc(t *testing.T) {
	m := NewMinstrel(phy.Mode80211b(), rng.New(5))
	p := frame.MACAddr{2, 0, 0, 0, 0, 9}
	for i := 0; i < 200; i++ {
		m.OnTxResult(p, m.SelectRate(p, 1200, 0), i%3 != 0)
	}
	st := m.state(p)
	allocs := testing.AllocsPerRun(1, func() {
		// Position exactly one result before the window boundary: the
		// warm-up run AllocsPerRun makes first crosses it too.
		for st.results%statsWindow != statsWindow-1 {
			m.OnTxResult(p, 0, true)
		}
		m.OnTxResult(p, 1, true) // triggers updateStats
	})
	if allocs != 0 {
		t.Fatalf("minstrel window update allocates %v/op, want 0", allocs)
	}
}

// Peer state must survive array growth: interleaving a new peer's first
// contact with an old peer's traffic must not reset or cross-wire states.
func TestPeerArrayGrowthKeepsState(t *testing.T) {
	mode := phy.Mode80211b()
	a := NewARF(mode)
	first := frame.MACAddr{2, 0, 0, 0, 0, 1}
	// Climb first's rate.
	for i := 0; i < 10; i++ {
		a.OnTxResult(first, a.SelectRate(first, 1500, 0), true)
	}
	climbed := a.SelectRate(first, 1500, 0)
	if climbed == mode.LowestBasic() {
		t.Fatal("warm-up did not climb")
	}
	// Add many new peers to force repeated array growth.
	for i := 2; i < 40; i++ {
		p := frame.MACAddr{2, 0, 0, 0, 0, byte(i)}
		a.OnTxResult(p, a.SelectRate(p, 1500, 0), false)
	}
	if got := a.SelectRate(first, 1500, 0); got != climbed {
		t.Fatalf("first peer's rate lost across growth: %d -> %d", climbed, got)
	}
	for i := 2; i < 40; i++ {
		p := frame.MACAddr{2, 0, 0, 0, 0, byte(i)}
		if got := a.SelectRate(p, 1500, 0); got != mode.LowestBasic() {
			t.Fatalf("peer %d cross-wired: rate %d", i, got)
		}
	}
}
