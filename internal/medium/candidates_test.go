package medium

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// This file is the correctness wall for the candidate walk: a differential
// test holding the range-pruned walk to the unpruned one over a million
// queries, and the zero-alloc wall for fan-out among moving radios.

// diffTopology populates m with a mixed static/mobile radio population
// whose transmit powers span several detection ranges, so queries exercise
// per-transmitter reach rather than one range for all.
func diffTopology(m *Medium, n int) {
	pts := geom.Grid(n, 30, geom.Pt(0, 0))
	for i := 0; i < n; i++ {
		var mob geom.Mobility = geom.Static{P: pts[i]}
		switch i % 4 {
		case 1: // orbiting: bounded, in and out of others' range forever
			mob = geom.OrbitMobility{
				Centre: pts[i], Radius: 20 + float64(i%5)*10,
				Period: sim.Duration(2+i%3) * sim.Second,
			}
		case 3: // slow linear drift
			mob = geom.Linear{Start: pts[i], Velocity: geom.Vector{
				X: float64(i%7) - 3, Y: float64(i%5) - 2,
			}}
		}
		m.AddRadio(RadioConfig{
			Name: "r", Mode: phy.Mode80211b(), Mobility: mob,
			TxPower: units.DBm(-40 + 5*float64(i%4)),
		})
	}
}

// runDifferential advances the clock in 1 ms steps and, at every step,
// walks the candidates of every radio twice, range-pruned and unpruned.
// The unpruned walk must be every other radio in ascending id at its
// mobility's position now, so a stale static position or mobile list cannot
// hide; the pruned walk must be a subsequence of it with the same
// positions; and, at every eighth step, every radio of the unpruned walk
// that the exact power filter keeps must be in the pruned walk, so both
// walks schedule the same arrivals. Returns the number of pruned walks.
func runDifferential(t *testing.T, k *sim.Kernel, m *Medium, steps int, mutate func(step int)) int {
	t.Helper()
	queries := 0
	var all []candidate
	var pos []geom.Point
	q := &transmission{}
	at := k.Now()
	for step := 0; step < steps; step++ {
		at += sim.Time(sim.Millisecond)
		k.RunUntil(at)
		if mutate != nil {
			mutate(step)
		}
		m.spatialReady()
		if !m.sp.prune {
			t.Fatalf("step %d: range pruning unavailable", step)
		}
		pos = pos[:0]
		for _, r := range m.radios {
			pos = append(pos, r.mobility.PositionAt(at))
		}
		for id, r := range m.radios {
			q.start = at
			q.txPos = pos[id]
			m.sp.prune = false
			all = append(all[:0], m.candidates(r, q, true, true)...)
			m.sp.prune = true
			if len(all) != len(m.radios)-1 {
				t.Fatalf("step %d tx %d: unpruned walk has %d radios, want %d", step, id, len(all), len(m.radios)-1)
			}
			for i, c := range all {
				rid := i // the walk skips the transmitter
				if i >= id {
					rid = i + 1
				}
				if c.rx.id != rid || c.pos != pos[rid] {
					t.Fatalf("step %d tx %d: unpruned walk entry %d is radio %d at %v, want radio %d at %v",
						step, id, i, c.rx.id, c.pos, rid, pos[rid])
				}
			}
			pruned := m.candidates(r, q, true, true)
			queries++
			j := 0
			for _, c := range all {
				if j < len(pruned) && pruned[j].rx == c.rx {
					if pruned[j].pos != c.pos {
						t.Fatalf("step %d tx %d: pruned walk has radio %d at %v, unpruned at %v",
							step, id, c.rx.id, pruned[j].pos, c.pos)
					}
					j++
					continue
				}
				if step%8 != 0 {
					continue
				}
				power := m.model.RxPowerFrom(r.txPower, m.model.RefLoss(q.txPos), q.txPos, c.pos, linkID(r, c.rx), at)
				if !m.tooWeak(power, c.rx) {
					t.Fatalf("step %d tx %d at %v: radio %d receives %v dBm but the pruned walk dropped it",
						step, id, at, c.rx.id, power)
				}
			}
			if j != len(pruned) {
				t.Fatalf("step %d tx %d at %v: pruned walk %v is not a subsequence of the unpruned walk",
					step, id, at, candIDs(pruned))
			}
		}
	}
	return queries
}

func candIDs(cands []candidate) []int {
	ids := make([]int, len(cands))
	for i, c := range cands {
		ids[i] = c.rx.id
	}
	return ids
}

// TestPrunedWalkDifferential runs the range-pruned candidate walk against
// the unpruned walk for over a million queries across two path-loss models,
// with mid-run topology mutations thrown at the second. Every query must
// keep exactly the unpruned walk's arrivals.
func TestPrunedWalkDifferential(t *testing.T) {
	steps := 13000
	if testing.Short() {
		steps = 600
	}
	queries := 0

	k, m := testbed(101)
	diffTopology(m, 40)
	queries += runDifferential(t, k, m, steps, nil)

	// Log-distance model (different MaxRange inversion), with AddRadio,
	// far teleports and a louder radio landing mid-run: 6 dB above the
	// loudest of diffTopology, it widens every detection range.
	k2 := sim.NewKernel()
	model := spectrum.NewModel(spectrum.NewLogDistance(2412*units.MHz, 3.0), nil, nil)
	m2 := New(k2, model, rng.New(102))
	diffTopology(m2, 44)
	queries += runDifferential(t, k2, m2, steps, func(step int) {
		switch step {
		case steps * 3 / 10:
			m2.AddRadio(RadioConfig{
				Name: "late", Mode: phy.Mode80211b(),
				Mobility: geom.Static{P: geom.Pt(11, -180)}, TxPower: -28,
			})
		case steps * 5 / 10:
			m2.radios[7].SetMobility(geom.Static{P: geom.Pt(-400, 400)})
		case steps * 7 / 10:
			m2.AddRadio(RadioConfig{
				Name: "loud", Mode: phy.Mode80211b(),
				Mobility: geom.Static{P: geom.Pt(60, 90)}, TxPower: -19,
			})
		}
	})

	if !testing.Short() && queries < 1_000_000 {
		t.Fatalf("only %d differential queries, want >= 1M", queries)
	}
	t.Logf("%d pruned walks held to the unpruned walk", queries)
}

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
