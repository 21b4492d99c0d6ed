// Package spectrum models radio propagation: deterministic path loss
// (free-space, log-distance, two-ray ground), slow log-normal shadowing and
// fast Rayleigh/Rician fading. A composite Model chains the pieces; the
// medium asks it for the received power of every transmission at every
// candidate receiver.
//
// These models substitute for the over-the-air testbeds of the original
// papers: rate-adaptation and MAC mechanisms only observe per-frame
// delivery, RSSI and loss burstiness, all of which these standard models
// reproduce with the right qualitative shape.
package spectrum

import (
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/units"
)

// PathLoss is a deterministic distance-dependent loss model.
type PathLoss interface {
	// Loss returns the propagation loss (positive dB) between two points.
	Loss(tx, rx geom.Point) units.DB
}

// RangeBounder is an optional PathLoss capability: models whose loss is a
// monotone non-decreasing function of distance can invert it, letting the
// medium bound how far a transmission can possibly clear a receiver's
// detection threshold and prune fan-out spatially. Models whose loss
// depends on more than pairwise distance (per-point antenna heights,
// explicit loss matrices) must not implement it.
type RangeBounder interface {
	// MaxRange returns an upper bound on the distance in metres at which
	// the model's loss can still be at most maxLoss dB. Implementations
	// must be conservative: overestimating the range only costs pruning
	// efficiency, while underestimating it would drop reachable
	// receivers and break the medium's exact-filter equivalence.
	MaxRange(maxLoss units.DB) float64
}

// rangeSafety inflates inverted ranges by one part in a million so that
// floating-point round-trip error in the inversion can never prune a
// receiver the exact per-transmission filter would keep.
const rangeSafety = 1 + 1e-6

// FreeSpace is the Friis free-space model:
// L = 20 log10(4 pi d / lambda).
type FreeSpace struct {
	Freq units.Hertz
}

// Loss implements PathLoss.
func (f FreeSpace) Loss(tx, rx geom.Point) units.DB {
	d := tx.Distance(rx)
	if d < 1 {
		d = 1 // clamp inside near field; standard simulator practice
	}
	lambda := f.Freq.Wavelength()
	return units.DB(20 * math.Log10(4*math.Pi*d/lambda))
}

// MaxRange implements RangeBounder by inverting the Friis formula.
func (f FreeSpace) MaxRange(maxLoss units.DB) float64 {
	lambda := f.Freq.Wavelength()
	d := lambda / (4 * math.Pi) * math.Pow(10, float64(maxLoss)/20)
	if d < 1 {
		// Loss clamps below 1 m, so no greater distance can do better.
		d = 1
	}
	return d * rangeSafety
}

// LogDistance generalises free space with a path-loss exponent: free-space
// loss up to the reference distance, then n*10 dB per decade. Exponent 3.0
// approximates an office floor; 2.0 recovers free space.
type LogDistance struct {
	Freq     units.Hertz
	Exponent float64
	RefDist  float64 // reference distance in metres, typically 1
}

// NewLogDistance returns a log-distance model with a 1 m reference.
func NewLogDistance(freq units.Hertz, exponent float64) LogDistance {
	return LogDistance{Freq: freq, Exponent: exponent, RefDist: 1}
}

// Loss implements PathLoss.
func (l LogDistance) Loss(tx, rx geom.Point) units.DB {
	return l.LossFrom(l.RefLoss(tx), tx, rx)
}

// RefLoss is the transmitter's share of Loss: free-space loss over the
// reference distance, measured from tx as Loss measures it — so it rounds
// with tx's coordinates and is a constant per position, not per model.
func (l LogDistance) RefLoss(tx geom.Point) units.DB {
	return FreeSpace{Freq: l.Freq}.Loss(tx, tx.Add(geom.Vector{X: l.ref()}))
}

// LossFrom is Loss(tx, rx) given refLoss = RefLoss(tx).
func (l LogDistance) LossFrom(refLoss units.DB, tx, rx geom.Point) units.DB {
	d, ref := tx.Distance(rx), l.ref()
	if d < ref {
		d = ref
	}
	return refLoss + units.DB(10*l.Exponent*math.Log10(d/ref))
}

// ref is the reference distance, 1 m when unset.
func (l LogDistance) ref() float64 {
	if l.RefDist <= 0 {
		return 1
	}
	return l.RefDist
}

// MaxRange implements RangeBounder by inverting the log-distance curve.
// A non-positive exponent cannot be inverted; the +Inf return tells the
// medium the range is unbounded and spatial pruning must stay off.
func (l LogDistance) MaxRange(maxLoss units.DB) float64 {
	if l.Exponent <= 0 {
		return math.Inf(1)
	}
	ref := l.ref()
	l0 := FreeSpace{Freq: l.Freq}.Loss(geom.Point{}, geom.Point{X: ref})
	d := ref * math.Pow(10, float64(maxLoss-l0)/(10*l.Exponent))
	if d < ref {
		// Loss clamps below the reference distance.
		d = ref
	}
	return d * rangeSafety
}

// FixedLoss returns the same loss regardless of distance; useful in unit
// tests and for ideal-channel experiments.
type FixedLoss struct {
	DB units.DB
}

// Loss implements PathLoss.
func (f FixedLoss) Loss(_, _ geom.Point) units.DB { return f.DB }

// MatrixLoss specifies loss per directed node pair and falls back to a
// default. Hidden-terminal topologies are easiest to express this way: set
// the loss between the hidden pair above any carrier-sense threshold.
type MatrixLoss struct {
	Default units.DB
	// Pairs maps "txID->rxID" keys to losses. Keys are built by PairKey.
	Pairs map[string]units.DB
	// Resolver maps a position to a node ID. The medium sets positions; the
	// scenario wires IDs. If nil, only Default applies.
	Resolver func(p geom.Point) string
}

// PairKey builds the map key for a directed pair.
func PairKey(tx, rx string) string { return tx + "->" + rx }

// Loss implements PathLoss.
func (m MatrixLoss) Loss(tx, rx geom.Point) units.DB {
	if m.Resolver != nil && m.Pairs != nil {
		key := PairKey(m.Resolver(tx), m.Resolver(rx))
		if l, ok := m.Pairs[key]; ok {
			return l
		}
	}
	return m.Default
}

// Fading is a time-varying multiplicative channel gain (usually a loss,
// sometimes a small gain) per link, constant within a coherence block.
type Fading interface {
	// Gain returns the fading gain in dB for a transmission on the directed
	// link (tx, rx) at time t. Negative values are fades.
	Gain(linkID uint64, t sim.Time) units.DB
	// Block returns the index of the coherence block t falls in, and is the
	// model's promise that Gain(l, t) depends on t only through Block(t): a
	// caller may keep a link's gain for as long as Block does not change. A
	// time-invariant process has the single block 0.
	Block(t sim.Time) uint64
}

// NoFading is the identity fading process.
type NoFading struct{}

// Gain implements Fading.
func (NoFading) Gain(uint64, sim.Time) units.DB { return 0 }

// Block implements Fading.
func (NoFading) Block(sim.Time) uint64 { return 0 }

// Shadowing adds a log-normal (normal in dB) offset per link, constant in
// time — the standard model for obstruction variance between node pairs.
type Shadowing struct {
	SigmaDB float64
	rng     *rng.Source
	cache   map[uint64]units.DB
}

// NewShadowing builds a shadowing process with the given deviation.
func NewShadowing(src *rng.Source, sigmaDB float64) *Shadowing {
	return &Shadowing{SigmaDB: sigmaDB, rng: src, cache: make(map[uint64]units.DB)}
}

// Gain implements Fading. The per-link offset is drawn once and cached so
// the link is consistent for the whole run.
func (s *Shadowing) Gain(linkID uint64, _ sim.Time) units.DB {
	if g, ok := s.cache[linkID]; ok {
		return g
	}
	// Derive a per-link stream so iteration order cannot matter.
	draw := s.rng.Split(shadowLabel(linkID)).NormFloat64()
	g := units.DB(draw * s.SigmaDB)
	s.cache[linkID] = g
	return g
}

// Block implements Fading: the offset never changes.
func (*Shadowing) Block(sim.Time) uint64 { return 0 }

func shadowLabel(linkID uint64) string {
	buf := [20]byte{'s', 'h', 'a', 'd', ':'}
	n := 5
	for i := 0; i < 8; i++ {
		buf[n] = byte(linkID >> (8 * i))
		n++
	}
	return string(buf[:n])
}

// Rayleigh models fast fading without a line-of-sight component. The gain is
// resampled per coherence interval (block fading), which preserves the
// burst-loss structure rate-adaptation algorithms react to.
type Rayleigh struct {
	// Coherence is the block length; gains are constant within a block.
	Coherence sim.Duration
	rng       *rng.Source
}

// NewRayleigh builds a Rayleigh fading process. The coherence time must be
// positive; core.Config.Validate is where a user's value is refused.
func NewRayleigh(src *rng.Source, coherence sim.Duration) *Rayleigh {
	if coherence <= 0 {
		panic("spectrum: fading coherence time must be positive")
	}
	return &Rayleigh{Coherence: coherence, rng: src}
}

// Block implements Fading.
func (r *Rayleigh) Block(t sim.Time) uint64 { return uint64(t) / uint64(r.Coherence) }

// Gain implements Fading.
func (r *Rayleigh) Gain(linkID uint64, t sim.Time) units.DB {
	src := r.rng.Derive(fadeLabel(linkID, r.Block(t)))
	// |h|^2 for complex Gaussian h is exponential with mean 1.
	power := src.ExpFloat64()
	if power < 1e-9 {
		power = 1e-9
	}
	return units.DBFromLinear(power)
}

// Rician adds a line-of-sight component with factor K (linear). K=0 recovers
// Rayleigh; large K approaches no fading.
type Rician struct {
	K         float64
	Coherence sim.Duration
	rng       *rng.Source
}

// NewRician builds a Rician fading process with the given K factor and a
// positive coherence time.
func NewRician(src *rng.Source, k float64, coherence sim.Duration) *Rician {
	if coherence <= 0 {
		panic("spectrum: fading coherence time must be positive")
	}
	return &Rician{K: k, Coherence: coherence, rng: src}
}

// Block implements Fading.
func (r *Rician) Block(t sim.Time) uint64 { return uint64(t) / uint64(r.Coherence) }

// Gain implements Fading.
func (r *Rician) Gain(linkID uint64, t sim.Time) units.DB {
	src := r.rng.Derive(fadeLabel(linkID, r.Block(t)))
	// h = sqrt(K/(K+1)) + sqrt(1/(K+1)) * CN(0,1); power = |h|^2.
	los := math.Sqrt(r.K / (r.K + 1))
	sigma := math.Sqrt(1 / (2 * (r.K + 1)))
	re := los + sigma*src.NormFloat64()
	im := sigma * src.NormFloat64()
	power := re*re + im*im
	if power < 1e-9 {
		power = 1e-9
	}
	return units.DBFromLinear(power)
}

func fadeLabel(linkID, block uint64) string {
	buf := [24]byte{'f', 'a', 'd', 'e', ':'}
	n := 5
	for i := 0; i < 8; i++ {
		buf[n] = byte(linkID >> (8 * i))
		n++
	}
	for i := 0; i < 8; i++ {
		buf[n] = byte(block >> (8 * i))
		n++
	}
	return string(buf[:n])
}

// Model is the composite channel: deterministic path loss plus optional
// shadowing and fast fading.
type Model struct {
	PathLoss PathLoss
	Shadow   Fading // usually *Shadowing or NoFading
	Fast     Fading // usually *Rayleigh, *Rician or NoFading
}

// NewModel assembles a composite model; nil shadow/fast default to none.
func NewModel(pl PathLoss, shadow, fast Fading) *Model {
	if shadow == nil {
		shadow = NoFading{}
	}
	if fast == nil {
		fast = NoFading{}
	}
	return &Model{PathLoss: pl, Shadow: shadow, Fast: fast}
}

// RxPower returns the received power for a transmission at txPower from tx
// to rx on the directed link linkID at time t.
func (m *Model) RxPower(txPower units.DBm, txPos, rxPos geom.Point, linkID uint64, t sim.Time) units.DBm {
	return m.RxPowerFrom(txPower, m.RefLoss(txPos), txPos, rxPos, linkID, t)
}

// RefLoss is the share of the path loss from txPos that every receiver has
// in common, which a caller with many links from one position takes once
// and hands to RxPowerFrom. Only log-distance has one to give.
func (m *Model) RefLoss(txPos geom.Point) units.DB {
	if l, ok := m.PathLoss.(LogDistance); ok {
		return l.RefLoss(txPos)
	}
	return 0
}

// RxPowerFrom is RxPower given refLoss = RefLoss(txPos).
func (m *Model) RxPowerFrom(txPower units.DBm, refLoss units.DB, txPos, rxPos geom.Point, linkID uint64, t sim.Time) units.DBm {
	var loss units.DB
	if l, ok := m.PathLoss.(LogDistance); ok {
		loss = l.LossFrom(refLoss, txPos, rxPos)
	} else {
		loss = m.PathLoss.Loss(txPos, rxPos)
	}
	p := txPower.Add(-loss)
	p = p.Add(m.Shadow.Gain(linkID, t))
	p = p.Add(m.Fast.Gain(linkID, t))
	return p
}
