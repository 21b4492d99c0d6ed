package medium

import (
	"math"

	"repro/internal/geom"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// spatial is where the medium's radios are, kept for one topology
// generation: the static radios in ascending id with their positions in
// flat arrays, the mobile radios in ascending id, and — where the model
// allows range pruning — every transmitter's worst-case detection range.
// candidates walks it. Everything here is rebuilt when the medium's
// topology generation advances (AddRadio, SetMobility: both can change who
// reaches whom), and nothing else changes it: a mobile radio's position is
// sampled when a walk reaches it.
type spatial struct {
	enabled bool   // model shape allows range pruning at all
	prune   bool   // ranges derived for the current topology
	gen     uint64 // topology generation the state was built in
	bounder spectrum.RangeBounder

	rangeM []float64 // per-transmitter detection range, metres, indexed by radio id

	statics []int32   // the static radios, ascending id
	x, y, z []float64 // their positions, parallel to statics
	mobile  []*Radio  // the non-static radios, ascending id

	cand []candidate // candidates' scratch
}

// candidate is a radio that may hear a transmission, with its position at
// the transmission's start.
type candidate struct {
	rx  *Radio
	pos geom.Point
}

// spatialReady brings the static and mobile lists and, where the model
// allows pruning, the detection ranges up to the topology generation. A
// path-loss configuration whose range cannot be bounded leaves pruning off
// until the next mutation, and candidates are every radio.
//
//wlan:hotpath
func (m *Medium) spatialReady() {
	g := &m.sp
	if g.gen == m.topoGen {
		return
	}
	g.gen = m.topoGen
	g.statics, g.x, g.y, g.z = g.statics[:0], g.x[:0], g.y[:0], g.z[:0]
	g.mobile = g.mobile[:0]
	now := m.kernel.Now()
	for _, r := range m.radios {
		if !r.static {
			g.mobile = append(g.mobile, r)
			continue
		}
		p := r.mobility.PositionAt(now)
		g.statics = append(g.statics, int32(r.id))
		g.x, g.y, g.z = append(g.x, p.X), append(g.y, p.Y), append(g.z, p.Z)
	}
	g.prune = g.enabled && m.deriveRanges()
}

// deriveRanges sets every transmitter's detection range, and reports
// whether all of them are finite and positive.
func (m *Medium) deriveRanges() bool {
	g := &m.sp
	minFloor := math.Inf(1)
	for _, r := range m.radios {
		if f := float64(r.noiseFloor); f < minFloor {
			minFloor = f
		}
	}
	// A transmission from radio i can only be tracked at a receiver when
	// its loss stays within txPower_i - floor_rx + detectionMarginDB, and
	// every floor is at least minFloor, so MaxRange of that worst-case loss
	// bounds radio i's whole fan-out.
	g.rangeM = g.rangeM[:0]
	for _, r := range m.radios {
		d := g.bounder.MaxRange(units.DB(float64(r.txPower) - minFloor + detectionMarginDB))
		if math.IsNaN(d) || math.IsInf(d, 0) || d <= 0 {
			return false
		}
		g.rangeM = append(g.rangeM, d)
	}
	return true
}

// candidates returns the radios other than r that may hear its
// transmission t — the static ones when statics is set, the mobile ones
// when mobiles is set — with their positions at t.start, ascending by id.
// With pruning on it keeps only radios whose ground distance from t.txPos
// is within r's detection range: a conservative superset of what the exact
// per-receiver power filter keeps, since 3D distance is never smaller than
// ground distance and the range inverts the worst-case loss. So filtering
// the candidates is bit-identical to filtering every radio, and the
// ascending-id order keeps the arrival sequence identical too.
//
//wlan:hotpath
func (m *Medium) candidates(r *Radio, t *transmission, statics, mobiles bool) []candidate {
	g := &m.sp
	ns, nm := 0, 0
	if statics {
		ns = len(g.statics)
	}
	if mobiles {
		nm = len(g.mobile)
	}
	var r2 float64
	if g.prune {
		r2 = g.rangeM[r.id] * g.rangeM[r.id]
	}
	x, y := t.txPos.X, t.txPos.Y
	out := g.cand[:0]
	for i, j := 0, 0; i < ns || j < nm; {
		if j == nm || i < ns && int(g.statics[i]) < g.mobile[j].id {
			id := g.statics[i]
			dx, dy := g.x[i]-x, g.y[i]-y
			if int(id) != r.id && (!g.prune || dx*dx+dy*dy <= r2) {
				out = append(out, candidate{m.radios[id], geom.Point{X: g.x[i], Y: g.y[i], Z: g.z[i]}})
			}
			i++
			continue
		}
		rx := g.mobile[j]
		j++
		if rx == r {
			continue
		}
		p := rx.mobility.PositionAt(t.start)
		if dx, dy := p.X-x, p.Y-y; !g.prune || dx*dx+dy*dy <= r2 {
			out = append(out, candidate{rx, p})
		}
	}
	g.cand = out
	return out
}
