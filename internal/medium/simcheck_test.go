package medium_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/harness"
	"repro/internal/medium"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/traffic"
	"repro/internal/units"
	"repro/internal/wep"
)

// simcheck is the test-only scenario auditor: an observer on
// sim.Kernel.OnEvent that holds a whole network to its invariants after
// every event (the state an event left is checked when the next one is
// dispatched, and by flush after the run):
//
//   - (b) every in-flight arrival, and every lock, is an element of its
//     transmission's current arrival array.
//   - (c) a radio's running antenna power totalMW equals the sum of its
//     in-flight arrivals' powers (summed in ascending order, because
//     swap-remove leaves inFlight in none) within 2⁻⁴⁴ of the largest power
//     the radio has held; and every change is the event's own update,
//     replayed bit for bit from the radio's book before it: one arrival
//     added, or one removed with the < 1e-18 → 0 clamp.
//   - (d) a radio's lock is exactly one of its in-flight arrivals, and no
//     radio holds one while it transmits or sleeps.
//   - (e) per flow, the sink has received no more packets, and no more
//     bytes, than the generator has sent.
//   - (f) an unprotected data frame the MAC holds stores no trailing zero
//     byte: its send path left the payload's zero fill to frame.Zeros.
//
// An event named for a radio (rx-start:, rx-end:, tx-done: and the MAC's
// timers end in its name) touches that radio and its node alone, so after
// one only they are checked; after any other event — a generator's, a
// management timer's — and after every 64th event, all of them are.
type simcheck struct {
	t     *testing.T
	net   *core.Network
	at    sim.Time // the event whose aftermath the next check sees
	event string

	books  []book            // per radio, in id order
	macs   []macKey          // per node, what the held-frame check last saw
	byName map[string][2]int // radio name → its id and its node's index
	flows  []*traffic.FlowStats
	frames []*frame.Frame
	spare  []float64

	checks, edges int
}

// book is what the audit last saw of one radio.
type book struct {
	total float64
	in    []float64 // in-flight powers, ascending
	peak  float64   // largest in-flight power seen
}

// macKey is what decides a node's held-frame check: the MAC's hand-offs so
// far. While it stands, the answer does.
type macKey struct {
	queued, delivered, dropped uint64
	queueLen                   int
}

// powerBound is the measured drift bound of (c), relative to the largest
// power the radio has held.
const powerBound = 0x1p-44

// auditNetworks attaches a simcheck to every network core builds until the
// test ends, and returns the list they are appended to.
func auditNetworks(t *testing.T) *[]*simcheck {
	var all []*simcheck
	core.Audit = func(n *core.Network) {
		c := &simcheck{t: t, net: n}
		n.Kernel().OnEvent = c.onEvent
		all = append(all, c)
	}
	t.Cleanup(func() { core.Audit = nil })
	return &all
}

func (c *simcheck) onEvent(at sim.Time, name string) {
	c.check()
	c.at, c.event = at, name
}

// flush checks what the last event left.
func (c *simcheck) flush() { c.check() }

func (c *simcheck) fail(format string, args ...any) {
	c.t.Helper()
	c.t.Fatalf("simcheck: after %q at %v: %s", c.event, c.at, fmt.Sprintf(format, args...))
}

func (c *simcheck) check() {
	c.checks++
	radios, nodes := c.net.Medium().Radios(), c.net.Nodes()
	if len(c.books) != len(radios) || len(c.macs) != len(nodes) {
		c.books = append(c.books, make([]book, len(radios)-len(c.books))...)
		c.macs = append(c.macs, make([]macKey, len(nodes)-len(c.macs))...)
		c.byName = map[string][2]int{}
		for i, n := range nodes {
			c.byName[n.Name] = [2]int{slices.Index(radios, n.Radio), i}
		}
	}
	if ids, ok := c.byName[c.event[strings.LastIndexByte(c.event, ':')+1:]]; ok && c.checks%64 != 0 {
		c.radio(radios[ids[0]], &c.books[ids[0]])
		c.held(nodes[ids[1]], &c.macs[ids[1]])
		if !strings.HasPrefix(c.event, "rx-end:") { // the sink hears of a packet at a receiver's trailing edge
			return
		}
	} else {
		for i, r := range radios {
			c.radio(r, &c.books[i])
		}
		for i, n := range nodes {
			c.held(n, &c.macs[i])
		}
	}
	for i, g := range c.net.Generators() {
		if i == len(c.flows) {
			c.flows = append(c.flows, nil)
		}
		if c.flows[i] == nil {
			if c.flows[i] = c.net.FlowStats(uint32(i + 1)); c.flows[i] == nil {
				continue
			}
		}
		fs, sent := c.flows[i], g.Sent()
		if fs.Received > sent || fs.Bytes > sent*uint64(g.Size()) {
			c.fail("(e) flow %d: sink holds %d packets / %d B of %d sent × %d B", i+1, fs.Received, fs.Bytes, sent, g.Size())
		}
	}
}

// radio checks (b)–(d) on r.
func (c *simcheck) radio(r *medium.Radio, b *book) {
	total, in, lockIn, locked, astray := medium.RxState(r, c.spare[:0])
	c.spare = in
	if astray > 0 {
		c.fail("(b) %s: %d in-flight arrivals or lock outside their transmission's arrival array", r.Name(), astray)
	}
	if locked && (lockIn != 1 || r.Transmitting() || r.Asleep()) || !locked && lockIn != 0 {
		c.fail("(d) %s: locked=%v, %d in-flight arrivals are the lock, transmitting=%v, asleep=%v",
			r.Name(), locked, lockIn, r.Transmitting(), r.Asleep())
	}
	slices.Sort(in)
	if math.Float64bits(total) == math.Float64bits(b.total) && slices.Equal(in, b.in) {
		return // nothing moved
	}
	c.edges++
	sum := 0.0
	for _, x := range in {
		sum += x
		b.peak = max(b.peak, x)
	}
	if d := math.Abs(total - sum); d > powerBound*b.peak {
		c.fail("(c) %s: totalMW %v, in-flight sum %v: drift %.3g of the largest power held, bound %.3g", r.Name(), total, sum, d/b.peak, powerBound)
	}
	var want float64
	switch len(in) - len(b.in) {
	case 0:
		want = b.total
	case 1:
		want = b.total + extra(in, b.in)
	case -1:
		if want = b.total - extra(b.in, in); want < 1e-18 {
			want = 0
		}
	default:
		c.fail("(c) %s: one event moved %d arrivals", r.Name(), len(in)-len(b.in))
	}
	if math.Float64bits(total) != math.Float64bits(want) {
		c.fail("(c) %s: totalMW %v, its own update from %v gives %v", r.Name(), total, b.total, want)
	}
	b.total, b.in, c.spare = total, in, b.in
}

// extra returns the one value of the sorted long that sorted short lacks.
func extra(long, short []float64) float64 {
	for i, x := range short {
		if long[i] != x {
			return long[i]
		}
	}
	return long[len(long)-1]
}

// held checks (f) on n.
func (c *simcheck) held(n *core.Node, k *macKey) {
	st := n.MAC.Stats()
	key := macKey{st.MSDUQueued, st.MSDUDelivered, st.MSDUDropped, n.MAC.QueueLen()}
	if key == *k {
		return
	}
	*k = key
	c.frames = n.MAC.Held(c.frames[:0])
	for i, h := range c.frames {
		if h.Type == frame.TypeData && !h.Protected && !h.MoreFrag && len(h.Body) > 0 && h.Body[len(h.Body)-1] == 0 {
			c.fail("(f) %s: frame %d of the %d its MAC holds stores %d B ending in a zero byte (Zeros %d)",
				n.Name, i, len(c.frames), len(h.Body), h.Zeros)
		}
	}
}

// jitter is bench/'s deterministic per-axis offset in [-amp, amp).
func jitter(r *rand.Rand, amp float64) geom.Vector {
	return geom.Vector{X: (r.Float64()*2 - 1) * amp, Y: (r.Float64()*2 - 1) * amp}
}

// auditOp is one op of a benchmark simulation workload at -scale tiny: the
// builders of bench/workloads.go with their tiny sizes, warmed 100 ms and
// run as long as the benchmark runs them.
type auditOp struct {
	name  string
	i     int // the op's place in its workload: bench seeds it seed*16 + i
	build func(seed uint64) (*core.Network, sim.Duration)
}

func tinyWorkloads() []auditOp {
	var ops []auditOp
	for i, n := range []int{5, 20, 50} { // dcf-saturation
		ops = append(ops, auditOp{fmt.Sprintf("dcf-saturation/n%d", n), i, func(seed uint64) (*core.Network, sim.Duration) {
			r := rand.New(rand.NewSource(int64(seed)))
			net := core.NewNetwork(core.Config{Seed: seed})
			sink := net.AddAdhoc("sink", geom.Pt(0, 0))
			for i, p := range geom.Circle(n, 3, geom.Pt(0, 0)) {
				net.Saturate(net.AddAdhoc(fmt.Sprintf("sta%d", i), p.Add(jitter(r, 0.5))), sink, 1500)
			}
			return net, 200 * sim.Millisecond
		}})
	}
	for i, c := range []struct {
		name  string
		pitch float64
		rate  string
	}{{"dense", 15, ""}, {"sparse", 45, "fixed:0"}} { // city-grid
		ops = append(ops, auditOp{"city-grid/" + c.name, i, func(seed uint64) (*core.Network, sim.Duration) {
			r := rand.New(rand.NewSource(int64(seed)))
			net := core.NewNetwork(core.Config{Seed: seed, TxPower: 2, RateAdapt: c.rate})
			nodes := make([]*core.Node, 100)
			for i, p := range geom.Grid(len(nodes), c.pitch, geom.Pt(0, 0)) {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), p.Add(jitter(r, c.pitch/10)))
			}
			for i := 0; i+1 < len(nodes); i += 2 {
				net.Poisson(nodes[i], nodes[i+1], 200, 4)
			}
			return net, 200 * sim.Millisecond
		}})
	}
	for i, c := range []struct {
		name string
		key  wep.Key
	}{{"open", nil}, {"wep", wep.Key("bench-wep-key")}} { // roaming-wave
		ops = append(ops, auditOp{"roaming-wave/" + c.name, i, func(seed uint64) (*core.Network, sim.Duration) {
			r := rand.New(rand.NewSource(int64(seed)))
			const nAPs, stas = 2, 3
			net := core.NewNetwork(core.Config{Seed: seed})
			positions := make([]geom.Point, nAPs)
			for i := range positions {
				positions[i] = geom.Pt(float64(i)*80, 0)
			}
			_, aps := net.AddESS("city", positions, net80211.APConfig{WEPKey: c.key})
			walk := (80*float64(nAPs-1) + 15 - (5 - 8*float64(stas-1))) / 12
			for j := 0; j < stas; j++ {
				mob := geom.Linear{
					Start:    geom.Pt(5-8*float64(j), 2-float64(j%3)*2).Add(jitter(r, 0.5)),
					Velocity: geom.Vector{X: 12},
				}
				sta := net.AddMobileStation(fmt.Sprintf("sta%d", j), mob, net80211.STAConfig{
					SSID: "city", RoamThreshold: -65, RoamHysteresis: 6, WEPKey: c.key,
				})
				net.CBR(sta, aps[0], 300, 100*sim.Millisecond)
			}
			return net, sim.Duration(math.Ceil(walk))*sim.Second - 100*sim.Millisecond
		}})
	}
	for i, ctrl := range []string{"arf", "aarf", "samplerate", "minstrel"} { // fading-rateadapt
		ops = append(ops, auditOp{"fading-rateadapt/" + ctrl, i, func(seed uint64) (*core.Network, sim.Duration) {
			r := rand.New(rand.NewSource(int64(seed)))
			net := core.NewNetwork(core.Config{Seed: seed, Mode: "802.11a",
				RateAdapt: ctrl, ShadowSigmaDB: 4, Fading: "rayleigh"})
			for i, p := range geom.Circle(16, 25, geom.Pt(0, 0)) {
				a := net.AddAdhoc(fmt.Sprintf("a%d", i), p.Add(jitter(r, 2)))
				b := net.AddAdhoc(fmt.Sprintf("b%d", i), p.Add(geom.Vector{X: 15}).Add(jitter(r, 2)))
				net.Saturate(a, b, 1200)
			}
			return net, 200 * sim.Millisecond
		}})
	}
	// Not a benchmark workload: TestGoldenTrace's infrastructure cell, whose
	// dozing stations are the power-save path under contention.
	ops = append(ops, auditOp{"power-save cell", 0, func(uint64) (*core.Network, sim.Duration) {
		net := core.NewNetwork(core.Config{Seed: 9, Mode: "802.11b", RateAdapt: "samplerate",
			ShadowSigmaDB: 3, ShortPreamble: true, CaptureMarginDB: 10,
			PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
		ap := net.AddAP("ap0", geom.Pt(0, 0), net80211.APConfig{SSID: "lab"})
		for i, d := range []float64{12, 30, 55, 80} {
			sta := net.AddStation(fmt.Sprintf("sta%d", i), geom.Pt(d, float64(i)),
				net80211.STAConfig{SSID: "lab", PowerSave: i%2 == 1})
			net.CBR(sta, ap, 600, 25*sim.Millisecond)
			net.CBR(ap, sta, 400, 40*sim.Millisecond)
		}
		return net, 2900 * sim.Millisecond
	}})
	// Not a benchmark workload either: a burst of stations that scan for
	// one AP, switched on 0.3 ms apart, so their authentication and
	// association exchanges contend for the AP at once. TestSimcheckWorkloads
	// holds every one of them to associating.
	ops = append(ops, auditOp{"join burst", 0, func(uint64) (*core.Network, sim.Duration) {
		net := core.NewNetwork(core.Config{Seed: 11, Mode: "802.11b"})
		net.AddAP("ap0", geom.Pt(0, 0), net80211.APConfig{SSID: "burst"})
		for i, p := range geom.Circle(8, 10, geom.Pt(0, 0)) {
			net.AddStation(fmt.Sprintf("sta%d", i), p, net80211.STAConfig{SSID: "burst"})
			net.Run(300 * sim.Microsecond)
		}
		return net, 400 * sim.Millisecond
	}})
	return ops
}

// TestSimcheckWorkloads runs the audit over every op of the four benchmark
// simulation workloads at -scale tiny, seed 1, over a power-save cell and
// over a burst of joins on one AP, where every station must associate.
func TestSimcheckWorkloads(t *testing.T) {
	all := auditNetworks(t)
	for _, op := range tinyWorkloads() {
		net, dur := op.build(16 + uint64(op.i)) // bench's op seeds at seed 1
		net.Run(100 * sim.Millisecond)
		net.Run(dur)
		c := (*all)[len(*all)-1]
		c.flush()
		t.Logf("%s: %d events, %d radio changes audited", op.name, net.Kernel().Processed(), c.edges)
		if c.edges == 0 {
			t.Errorf("%s: no radio change audited", op.name)
		}
		for _, n := range net.Nodes() {
			if op.name == "join burst" && n.STA != nil && !n.STA.Associated() {
				t.Errorf("%s: %s never associated", op.name, n.Name)
			}
		}
	}
}

// TestSimcheckQuickGrids runs the audit over every point of every
// experiment's quick grid: saturated DCF, ESS corridors whose stations scan,
// associate, roam and cross the DS, hotspots, power-save cells, fading and
// rate adaptation. S1 alone is exempt: its link-privacy table seals and
// opens frames without building a network. The WEP path is roaming-wave's,
// in TestSimcheckWorkloads.
func TestSimcheckQuickGrids(t *testing.T) {
	all := auditNetworks(t)
	for _, e := range harness.All() {
		if e.ID == "S1" {
			continue
		}
		g := e.Grid(true)
		for i := 0; i < g.N; i++ {
			from := len(*all)
			g.Point(i)
			if len(*all) == from {
				t.Fatalf("%s point %d built no network", e.ID, i)
			}
			for _, c := range (*all)[from:] {
				c.flush()
				t.Logf("%s point %d: %d events, %d radio changes audited", e.ID, i, c.net.Kernel().Processed(), c.edges)
			}
		}
	}
}
