package medium

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/sim"
)

// This file is the zero-alloc wall for fan-out among moving radios, which
// also pins the candidate walk's range pruning. TestTransmitDifferentialAllRadios
// holds the walk's arrivals to the all-radios computation.

// TestMovingFanoutZeroAlloc is the steady-state allocation wall for fan-out
// among moving radios: a static and a mobile transmitter, receivers
// orbiting inside detection range, one static in-range decoder and one
// static radio far out of range must cost zero allocations per
// transmission once the pools and the walk's scratch are warm.
func TestMovingFanoutZeroAlloc(t *testing.T) {
	k, m := testbed(55)
	tx := addStatic(m, "tx", 0)
	addStatic(m, "rx", 8) // decodes every frame
	mover1 := addStatic(m, "m1", 40)
	mover2 := addStatic(m, "m2", 60)
	mtx := addStatic(m, "mtx", 20)
	addStatic(m, "far", 1e7)

	f := dataFrame(500)
	fire := func() { tx.Transmit(f, 3) }
	fireMobile := func() { mtx.Transmit(f, 3) }
	k.Schedule(0, "tx", fire)
	k.Run()
	if !m.sp.prune {
		t.Fatal("range pruning should be live on the free-space testbed")
	}

	// Orbit at three-quarters of the transmitter's range: inside it the
	// whole way round.
	r := 0.75 * m.sp.rangeM[tx.id]
	mover1.SetMobility(geom.OrbitMobility{Radius: r, Period: 40 * sim.Millisecond})
	mover2.SetMobility(geom.OrbitMobility{Radius: r / 2, Period: 30 * sim.Millisecond})
	mtx.SetMobility(geom.OrbitMobility{Centre: geom.Pt(5, 5), Radius: 15, Period: 50 * sim.Millisecond})

	send := func() {
		k.Schedule(0, "tx", fire)
		k.Run()
		k.Schedule(0, "tx", fireMobile)
		k.Run()
	}
	// Warm-up: more than a full revolution, so every pool is primed.
	for i := 0; i < 120; i++ {
		send()
	}
	cands := m.FanoutCandidates
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("moving-node fan-out allocates %v/op in steady state, want 0", allocs)
	}
	// Each pair of sends walks four candidates from each transmitter: the
	// far radio is pruned from both.
	if got, want := m.FanoutCandidates-cands, uint64(201*2*4); got != want {
		t.Fatalf("measured sends walked %d candidates, want %d: the far radio was not pruned", got, want)
	}
}
