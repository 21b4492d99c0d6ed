package medium

import (
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// cellKey addresses one uniform-grid cell. Cells cover the ground plane
// (X, Y); the grid ignores Z because 3D distance is never smaller than
// ground distance, so 2D pruning stays a superset of the exact filter.
type cellKey struct{ x, y int32 }

// spatial is the medium's uniform-grid index over radio positions. It
// exists to make candidate selection sublinear in radio count: instead of
// walking every radio, a fan-out row build or a mobile transmitter's
// fan-out walks only the cells within the transmitter's detection range.
//
// Per-radio state is struct-of-arrays — positions, cell assignments and
// detection ranges live in flat parallel slices indexed by radio id — so
// the candidate scan touches dense memory instead of chasing *Radio
// pointers.
//
// Invalidation contract: the index is rebuilt from scratch when the
// medium's topology generation advances (AddRadio, SetMobility — both can
// change detection ranges or the cell size), and migrated incrementally for
// ordinary mobility: at most once per distinct transmission timestamp,
// every mobile radio's position is re-sampled from its Mobility and the
// radio is moved between cells if it crossed a boundary. Cell membership is
// unordered (swap-remove); candidate order is re-established per query by
// an ascending-id sort, which keeps fan-out iteration — and therefore event
// ordering — bit-identical to the all-pairs walk.
type spatial struct {
	enabled bool   // model shape allows spatial pruning at all
	ok      bool   // index built and consistent with the current topology
	gen     uint64 // topology generation the index was built in
	bounder spectrum.RangeBounder

	cellSize float64
	minFloor float64 // lowest noise floor (dBm) over all radios

	cells map[cellKey][]int32

	// Struct-of-arrays per-radio state, indexed by radio id.
	posX, posY []float64
	cellOf     []cellKey
	rangeM     []float64 // per-transmitter detection range, metres

	mobile   []*Radio // the non-static radios, ascending id
	posTime  sim.Time
	posFresh bool

	cand       []int32  // query scratch: candidate ids, sorted ascending
	candRadios []*Radio // query scratch: candidates resolved for fan-out
}

// gridReady brings the mobile list and, where the model allows one, the
// spatial index up to the topology generation, and reports whether the
// index is usable. A failed build — a path-loss configuration whose range
// cannot be bounded — leaves the index off until the next mutation, and
// candidates come from all radios.
//
//wlan:hotpath
func (m *Medium) gridReady() bool {
	g := &m.sp
	if g.gen != m.topoGen {
		g.gen = m.topoGen
		g.mobile = g.mobile[:0]
		for _, r := range m.radios {
			if !r.static {
				g.mobile = append(g.mobile, r)
			}
		}
		g.ok = g.enabled && m.rebuildGrid()
	}
	return g.ok
}

// rebuildGrid derives per-transmitter detection ranges and the cell size
// from the current radio set, then bins every radio. O(N); runs
// only after topology mutations, never per transmission.
func (m *Medium) rebuildGrid() bool {
	g := &m.sp
	n := len(m.radios)
	if n == 0 {
		return false
	}
	for len(g.posX) < n {
		g.posX = append(g.posX, 0)
		g.posY = append(g.posY, 0)
		g.cellOf = append(g.cellOf, cellKey{})
		g.rangeM = append(g.rangeM, 0)
	}

	minFloor := math.Inf(1)
	for _, r := range m.radios {
		if f := float64(r.noiseFloor); f < minFloor {
			minFloor = f
		}
	}
	g.minFloor = minFloor

	// A transmission from radio i can only be tracked at a receiver when
	// its loss stays within txPower_i - floor_rx + detectionMarginDB, and
	// every floor is at least minFloor, so MaxRange of that worst-case loss
	// bounds radio i's whole fan-out.
	maxRange := 0.0
	for i, r := range m.radios {
		maxLoss := units.DB(float64(r.txPower) - minFloor + detectionMarginDB)
		d := g.bounder.MaxRange(maxLoss)
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			return false
		}
		g.rangeM[i] = d
		if d > maxRange {
			maxRange = d
		}
	}
	// One cell per maximum range: a query never scans more than the 3×3
	// block around the transmitter's cell.
	g.cellSize = maxRange

	//wlan:allow-nondeterminism clearing every cell in place; order is irrelevant
	for k, s := range g.cells {
		g.cells[k] = s[:0]
	}
	now := m.kernel.Now()
	for i, r := range m.radios {
		p := r.mobility.PositionAt(now)
		g.posX[i], g.posY[i] = p.X, p.Y
		k := g.keyFor(p.X, p.Y)
		g.cellOf[i] = k
		g.cells[k] = append(g.cells[k], int32(i))
	}
	g.posTime = now
	g.posFresh = true
	return true
}

func (g *spatial) keyFor(x, y float64) cellKey {
	return cellKey{int32(math.Floor(x / g.cellSize)), int32(math.Floor(y / g.cellSize))}
}

// refreshPositions migrates every mobile radio to its cell at the given
// timestamp. Memoized per timestamp: a burst of transmissions at one
// instant pays for one migration pass.
//
//wlan:hotpath
func (m *Medium) refreshPositions(at sim.Time) {
	g := &m.sp
	if g.posFresh && g.posTime == at {
		return
	}
	for _, r := range g.mobile {
		p := r.mobility.PositionAt(at)
		m.placeRadio(r.id, p.X, p.Y)
	}
	g.posTime = at
	g.posFresh = true
}

// placeRadio updates one radio's indexed position, moving it between cells
// when it crossed a boundary. Cell slices are unordered, so removal is a
// swap with the last element.
//
//wlan:hotpath
func (m *Medium) placeRadio(id int, x, y float64) {
	g := &m.sp
	g.posX[id], g.posY[id] = x, y
	k := g.keyFor(x, y)
	old := g.cellOf[id]
	if k == old {
		return
	}
	m.GridMigrations++
	s := g.cells[old]
	for i, v := range s {
		if int(v) == id {
			s[i] = s[len(s)-1]
			g.cells[old] = s[:len(s)-1]
			break
		}
	}
	g.cellOf[id] = k
	g.cells[k] = append(g.cells[k], int32(id))
}

// within reports whether radio id's indexed ground position lies inside the
// circle of squared radius r2 around (x, y).
func (g *spatial) within(id int, x, y, r2 float64) bool {
	dx, dy := g.posX[id]-x, g.posY[id]-y
	return dx*dx+dy*dy <= r2
}

// gridCandidates returns the radios within detection range of the
// transmission, ascending by id, excluding the transmitter. The set is a
// conservative superset of what the exact per-receiver power filter
// keeps — pruning uses ground distance against the transmitter's
// inverted worst-case range — so filtering the returned list is
// bit-identical to filtering all radios, and the ascending-id order keeps
// the scheduled arrival sequence identical too.
//
//wlan:hotpath
func (m *Medium) gridCandidates(r *Radio, t *transmission) []*Radio {
	g := &m.sp
	m.refreshPositions(t.start)
	x, y := t.txPos.X, t.txPos.Y
	reach := g.rangeM[r.id]
	r2 := reach * reach

	g.cand = g.cand[:0]
	x0 := int32(math.Floor((x - reach) / g.cellSize))
	x1 := int32(math.Floor((x + reach) / g.cellSize))
	y0 := int32(math.Floor((y - reach) / g.cellSize))
	y1 := int32(math.Floor((y + reach) / g.cellSize))
	for cy := y0; cy <= y1; cy++ {
		for cx := x0; cx <= x1; cx++ {
			for _, id := range m.sp.cells[cellKey{cx, cy}] {
				if int(id) != r.id && g.within(int(id), x, y, r2) {
					g.cand = append(g.cand, id)
				}
			}
		}
	}
	slices.Sort(g.cand)
	g.candRadios = g.candRadios[:0]
	for _, id := range g.cand {
		g.candRadios = append(g.candRadios, m.radios[id])
	}
	return g.candRadios
}
