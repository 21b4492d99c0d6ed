package medium

import (
	"slices"
	"testing"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// This file is the correctness wall for the spatial index: a differential
// test pinning grid candidate sets bit-identical to a naive all-pairs
// reference over a million queries, a property test pinning incremental
// cell migration against rebuild-from-scratch under adversarial mutation
// sequences, the zero-alloc wall for moving-node fan-out, and the
// grid-vs-all-pairs fan-out benchmarks behind the PERFORMANCE.md table.

// diffTopology populates m with a mixed static/mobile radio population
// whose transmit powers span several detection ranges, so queries exercise
// per-transmitter reach and multi-cell scans rather than one degenerate
// cell.
func diffTopology(m *Medium, n int) {
	pts := geom.Grid(n, 30, geom.Pt(0, 0))
	for i := 0; i < n; i++ {
		var mob geom.Mobility = geom.Static{P: pts[i]}
		switch i % 4 {
		case 1: // orbiting: bounded, crosses cells forever
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

// naiveInRange is the all-pairs reference: every other radio whose ground
// distance clears the transmitter's detection range, ascending by id. It
// uses the same squared-distance comparison as gridCandidates so boundary
// cases are bit-identical, and positions sampled independently of the
// index, so an index radio left in a stale cell or with a stale position
// cannot hide.
func naiveInRange(m *Medium, tx int, txPos geom.Point, px, py []float64, out []int32) []int32 {
	reach := m.sp.rangeM[tx]
	r2 := reach * reach
	out = out[:0]
	for id := range px {
		if id == tx {
			continue
		}
		dx, dy := px[id]-txPos.X, py[id]-txPos.Y
		if dx*dx+dy*dy <= r2 {
			out = append(out, int32(id))
		}
	}
	return out
}

// runDifferential advances the clock in 1 ms steps and, at every step,
// queries the index from every radio and compares against the naive
// reference. Returns the number of index queries issued.
func runDifferential(t *testing.T, k *sim.Kernel, m *Medium, steps int, mutate func(step int)) int {
	t.Helper()
	queries := 0
	var ref []int32
	px := make([]float64, 0, len(m.radios))
	py := make([]float64, 0, len(m.radios))
	q := &transmission{}
	at := k.Now()
	for step := 0; step < steps; step++ {
		at += sim.Time(sim.Millisecond)
		k.RunUntil(at)
		if mutate != nil {
			mutate(step)
		}
		if !m.gridReady() {
			t.Fatalf("step %d: spatial index unavailable", step)
		}
		px, py = px[:0], py[:0]
		for _, r := range m.radios {
			p := r.mobility.PositionAt(at)
			px, py = append(px, p.X), append(py, p.Y)
		}
		for id, r := range m.radios {
			q.start = at
			q.txPos = r.mobility.PositionAt(at)
			m.gridCandidates(r, q)
			queries++
			ref = naiveInRange(m, id, q.txPos, px, py, ref)
			if !slices.Equal(m.sp.cand, ref) {
				t.Fatalf("step %d tx %d at %v: grid candidates %v != all-pairs %v",
					step, id, at, m.sp.cand, ref)
			}
			// Subsampled conservativeness check against the exact power
			// filter transmit applies: anything the filter would keep must
			// survive pruning.
			if queries%1009 == 0 {
				for rx := range px {
					if rx == id {
						continue
					}
					power := r.txPower.Add(-m.model.PathLoss.Loss(q.txPos, geom.Point{X: px[rx], Y: py[rx]}))
					detectable := float64(power) >= float64(m.radios[rx].noiseFloor)-detectionMarginDB
					if detectable && !slices.Contains(m.sp.cand, int32(rx)) {
						t.Fatalf("step %d: radio %d detectable from %d (%v dBm) but pruned",
							step, rx, id, power)
					}
				}
			}
		}
	}
	return queries
}

// TestGridDifferentialAllPairs runs the index against the naive all-pairs
// reference for over a million queries across two path-loss models, with
// mid-run topology mutations thrown at the second. Candidate id sequences
// must match bit-for-bit on every single query.
func TestGridDifferentialAllPairs(t *testing.T) {
	steps := 13000
	if testing.Short() {
		steps = 600
	}
	queries := 0

	k, m := testbed(101)
	diffTopology(m, 40)
	queries += runDifferential(t, k, m, steps, nil)

	// Log-distance model (different MaxRange inversion), with AddRadio,
	// multi-cell teleports and a louder radio landing mid-run: 6 dB above
	// the loudest of diffTopology, it widens the largest detection range
	// and so the cell size.
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
	t.Logf("%d differential queries, all bit-identical to all-pairs", queries)
}

// checkGridMatchesRebuild compares the incrementally-maintained index
// against a from-scratch reference derived purely from radio mobilities at
// the index's position timestamp: positions, cell assignments, cell
// membership and per-transmitter ranges must all match exactly.
func checkGridMatchesRebuild(t *testing.T, m *Medium) {
	t.Helper()
	g := &m.sp
	ref := make(map[cellKey][]int32)
	for i, r := range m.radios {
		p := r.mobility.PositionAt(g.posTime)
		if g.posX[i] != p.X || g.posY[i] != p.Y {
			t.Fatalf("radio %d indexed at (%v,%v), mobility says %v", i, g.posX[i], g.posY[i], p)
		}
		key := g.keyFor(p.X, p.Y)
		if g.cellOf[i] != key {
			t.Fatalf("radio %d in cell %v, rebuild puts it in %v", i, g.cellOf[i], key)
		}
		ref[key] = append(ref[key], int32(i))
		want := units.DB(float64(r.txPower) - g.minFloor + detectionMarginDB)
		if g.rangeM[i] != g.bounder.MaxRange(want) {
			t.Fatalf("radio %d range %v stale for tx power %v", i, g.rangeM[i], r.txPower)
		}
	}
	total := 0
	//wlan:allow-nondeterminism consistency check over every cell; failure text does not depend on order
	for key, ids := range g.cells {
		sorted := slices.Clone(ids)
		slices.Sort(sorted)
		if !slices.Equal(sorted, ref[key]) {
			t.Fatalf("cell %v holds %v, rebuild holds %v", key, sorted, ref[key])
		}
		total += len(ids)
	}
	if total != len(m.radios) {
		t.Fatalf("cells hold %d radios, want %d", total, len(m.radios))
	}
}

// TestGridIncrementalMatchesRebuild is the property test for the index's
// invalidation contract: under a random interleaving of time advances,
// multi-cell teleports, mobility swaps and mid-run additions of radios at
// transmit powers from 4 dB below to 6 dB above diffTopology's range, the
// incrementally-migrated index must be indistinguishable from one rebuilt
// from scratch at the same instant.
func TestGridIncrementalMatchesRebuild(t *testing.T) {
	k, m := testbed(77)
	diffTopology(m, 32)
	src := rng.New(0x9121).Split("grid-prop")
	q := &transmission{}

	ops := 3000
	if testing.Short() {
		ops = 300
	}
	for op := 0; op < ops; op++ {
		switch src.Intn(10) {
		case 0: // multi-cell teleport
			id := src.Intn(len(m.radios))
			m.radios[id].SetMobility(geom.Static{P: geom.Pt(
				(src.Float64()-0.5)*2000, (src.Float64()-0.5)*2000)})
		case 1: // go mobile with a fresh trajectory
			id := src.Intn(len(m.radios))
			m.radios[id].SetMobility(geom.OrbitMobility{
				Centre: geom.Pt(src.Float64()*300, src.Float64()*300),
				Radius: 5 + src.Float64()*80,
				Period: sim.Duration(1+src.Intn(4)) * sim.Second,
			})
		case 2, 3: // population growth mid-run: must re-derive every
			// detection range and the cell size
			if len(m.radios) < 128 {
				m.AddRadio(RadioConfig{
					Name: "x", Mode: phy.Mode80211b(),
					Mobility: geom.Static{P: geom.Pt(src.Float64()*500, src.Float64()*500)},
					TxPower:  units.DBm(-44 + 5*float64(src.Intn(6))),
				})
			}
		default: // ordinary time advance: incremental migration path
			k.RunUntil(k.Now() + sim.Time(src.Intn(40)+1)*sim.Time(sim.Millisecond))
		}
		if !m.gridReady() {
			t.Fatalf("op %d: spatial index unavailable", op)
		}
		tx := m.radios[src.Intn(len(m.radios))]
		q.start = k.Now()
		q.txPos = tx.mobility.PositionAt(q.start)
		m.gridCandidates(tx, q) // drives refreshPositions to kernel now
		checkGridMatchesRebuild(t, m)
	}
}

// TestMovingFanoutZeroAlloc is the steady-state allocation wall for the
// incremental-migration path: receivers orbiting across cell boundaries
// (plus one static in-range decoder) must cost zero allocations per
// transmission once the pools, the orbit's cell set and the query scratch
// are warm.
func TestMovingFanoutZeroAlloc(t *testing.T) {
	k, m := testbed(55)
	tx := addStatic(m, "tx", 0)
	addStatic(m, "rx", 8) // decodes every frame
	mover1 := addStatic(m, "m1", 40)
	mover2 := addStatic(m, "m2", 60)

	f := dataFrame(500)
	fire := func() { tx.Transmit(f, 3) }
	k.Schedule(0, "tx", fire)
	k.Run()
	if !m.sp.ok {
		t.Fatal("spatial index should be live on the free-space testbed")
	}

	// Orbit at three-quarters of the cell size: inside detection range the
	// whole way round, crossing cell boundaries every revolution.
	r := 0.75 * m.sp.cellSize
	mover1.SetMobility(geom.OrbitMobility{Radius: r, Period: 40 * sim.Millisecond})
	mover2.SetMobility(geom.OrbitMobility{Radius: r / 2, Period: 30 * sim.Millisecond})

	// Warm-up: more than a full revolution, so every cell either orbit
	// visits exists and holds slice capacity, and all pools are primed.
	for i := 0; i < 120; i++ {
		k.Schedule(0, "tx", fire)
		k.Run()
	}
	cellsBefore := len(m.sp.cells)

	allocs := testing.AllocsPerRun(200, func() {
		k.Schedule(0, "tx", fire)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("moving-node fan-out allocates %v/op in steady state, want 0", allocs)
	}
	if len(m.sp.cells) != cellsBefore {
		t.Fatalf("measured window materialized new cells (%d -> %d): warm-up lap too short",
			cellsBefore, len(m.sp.cells))
	}
	if m.sp.cellOf[mover1.id] == m.sp.cellOf[tx.id] && m.sp.cellOf[mover2.id] == m.sp.cellOf[tx.id] {
		t.Fatal("orbits never left the transmitter's cell; migration path not exercised")
	}
}

// benchFanout measures the full transmit fan-out with a mobile transmitter
// amid n low-power static radios on a 15 m grid. grid=false disables the
// spatial index, which for a mobile transmitter means the true all-pairs
// walk — the pre-index cost this index exists to remove. The in-range
// receiver set (and therefore all downstream arrival work) is identical in
// both modes, so the delta is purely fan-out selection.
func benchFanout(b *testing.B, n int, grid bool) {
	k, m := testbed(202)
	pts := geom.Grid(n, 15, geom.Pt(0, 0))
	for i := 0; i < n; i++ {
		m.AddRadio(RadioConfig{
			Name: "r", Mode: phy.Mode80211b(),
			Mobility: geom.Static{P: pts[i]}, TxPower: -30,
		})
	}
	tx := m.AddRadio(RadioConfig{
		Name: "tx", Mode: phy.Mode80211b(),
		Mobility: geom.Linear{Start: geom.Pt(1, 1), Velocity: geom.Vector{X: 0.01}},
		TxPower:  -30,
	})
	f := dataFrame(500)
	fire := func() { tx.Transmit(f, 3) }
	for i := 0; i < 8; i++ {
		k.Schedule(0, "tx", fire)
		k.Run()
	}
	m.sp.enabled = grid
	m.topoGen++
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Schedule(0, "tx", fire)
		k.Run()
	}
}

func BenchmarkFanoutGrid1k(b *testing.B)      { benchFanout(b, 1000, true) }
func BenchmarkFanoutAllPairs1k(b *testing.B)  { benchFanout(b, 1000, false) }
func BenchmarkFanoutGrid3k(b *testing.B)      { benchFanout(b, 3000, true) }
func BenchmarkFanoutAllPairs3k(b *testing.B)  { benchFanout(b, 3000, false) }
func BenchmarkFanoutGrid10k(b *testing.B)     { benchFanout(b, 10000, true) }
func BenchmarkFanoutAllPairs10k(b *testing.B) { benchFanout(b, 10000, false) }
