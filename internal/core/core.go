// Package core is the public scenario API of the simulator: it assembles
// the kernel, medium, radios, MACs, rate controllers and management plane
// into networks you can describe in a few lines, attaches measured traffic
// flows, and runs them for virtual time.
//
//	net := core.NewNetwork(core.Config{Mode: "802.11b", Seed: 1})
//	ap  := net.AddAP("ap0", geom.Pt(0, 0), net80211.APConfig{SSID: "lab"})
//	sta := net.AddStation("sta0", geom.Pt(10, 0), net80211.STAConfig{SSID: "lab"})
//	flow := net.Saturate(sta, ap, 1500)
//	net.Run(5 * sim.Second)
//	fmt.Println(net.FlowThroughput(flow))
package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/net80211"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/traffic"
	"repro/internal/units"
)

// Config describes the shared environment of a scenario.
type Config struct {
	// Seed makes the whole run deterministic. Seed 0 is valid.
	Seed uint64
	// Mode names the PHY: "802.11", "802.11a", "802.11b" (default),
	// "802.11g".
	Mode string
	// Channel is the shared radio channel (default 1).
	Channel int
	// TxPower in dBm (default 16; NaN or infinite: refused).
	TxPower units.DBm

	// PathLoss overrides the default log-distance exponent-3 model.
	PathLoss spectrum.PathLoss
	// ShadowSigmaDB enables log-normal shadowing when > 0 (negative: refused).
	ShadowSigmaDB float64
	// Fading: "", "none", "rayleigh", "rician:<K>".
	Fading string
	// FadingCoherence is the fading block length: 0 means 10 ms, < 0 is refused.
	FadingCoherence sim.Duration

	// RateAdapt names the driver rate policy: "fixed" / "fixed:<idx>"
	// (default: fixed at the top rate), "arf", "aarf", "samplerate",
	// "minstrel".
	RateAdapt string

	// MAC parameter overrides applied to every node (zero = defaults,
	// negative or CWmin > CWmax: refused).
	RTSThreshold  int
	FragThreshold int
	CWmin, CWmax  int
	QueueCap      int

	// Capture enables physical-layer capture at every radio.
	Capture bool
	// CaptureMarginDB overrides the 10 dB default capture margin.
	CaptureMarginDB float64
	// ShortPreamble selects the short DSSS preamble where the mode
	// supports it (802.11b).
	ShortPreamble bool
	// Tracer receives frame-level events (nil = off).
	Tracer trace.Tracer
}

// Node is one wireless device in the network with its full stack.
type Node struct {
	Name  string
	Radio *medium.Radio
	MAC   *mac.DCF

	// Exactly one of these is non-nil depending on the node role.
	AP    *net80211.AP
	STA   *net80211.STA
	Adhoc *net80211.Adhoc

	net *Network
}

// Address returns the node's MAC address.
func (n *Node) Address() frame.MACAddr { return n.MAC.Address() }

// Send transmits an application payload to dst through whatever role the
// node has. It returns false when the node cannot send yet (e.g. an
// unassociated station) or its queue is full.
func (n *Node) Send(dst frame.MACAddr, payload []byte) bool {
	switch {
	case n.STA != nil:
		return n.STA.Send(dst, payload)
	case n.AP != nil:
		return n.AP.Send(dst, payload)
	case n.Adhoc != nil:
		return n.Adhoc.Send(dst, payload)
	}
	return false
}

// Network owns a scenario.
type Network struct {
	cfg    Config
	kernel *sim.Kernel
	medium *medium.Medium
	mode   *phy.Mode
	rate   rateBuilder // the network-wide RateAdapt
	root   *rng.Source
	alloc  frame.AddrAllocator

	nodes   map[string]*Node
	order   []*Node
	sink    *traffic.Sink
	gens    []*traffic.Generator
	switchD *ether.Switch

	nextFlow uint32
	ran      sim.Duration
	obsLast  obsSnapshot // counter values at the last metrics flush
}

// specs is what a Config's Mode, Fading and RateAdapt strings resolve to.
type specs struct {
	mode   *phy.Mode
	fading fadingBuilder // nil: no fast fading
	rate   rateBuilder
}

// fadingBuilder constructs the fast-fading process of a parsed Fading spec.
type fadingBuilder func(src *rng.Source, coherence sim.Duration) spectrum.Fading

// rateBuilder constructs one node's controller for a parsed RateAdapt spec.
type rateBuilder func(n *Network, name string) mac.RateController

// resolve is the one place mode, fading and network-wide rate specs are
// parsed and the channel's numbers checked.
func (c Config) resolve() (s specs, err error) {
	name := c.Mode
	if name == "" {
		name = "802.11b"
	}
	if s.mode, err = phy.ModeByName(name); err == nil {
		if s.fading, err = parseFading(c.Fading); err == nil {
			s.rate, err = parseRate(c.RateAdapt, s.mode)
		}
	}
	if err == nil && c.FadingCoherence < 0 {
		err = fmt.Errorf("core: bad fading coherence %v: want a positive time, or 0 for 10 ms", c.FadingCoherence)
	} else if err == nil && (!(c.ShadowSigmaDB >= 0) || math.IsInf(c.ShadowSigmaDB, 1)) {
		err = fmt.Errorf("core: bad shadowing sigma %v dB: want a positive deviation, or 0 for none", c.ShadowSigmaDB)
	} else if p := float64(c.TxPower); err == nil && (math.IsNaN(p) || math.IsInf(p, 0)) {
		err = fmt.Errorf("core: bad transmit power %v dBm: want a finite level", p)
	} else if err == nil && min(c.QueueCap, c.CWmin, c.CWmax, c.RTSThreshold, c.FragThreshold) < 0 {
		// A negative QueueCap fails every Enqueue, management frames included.
		err = fmt.Errorf("core: bad MAC override, want 0 (the default) or more: QueueCap %d, CWmin %d, CWmax %d, RTSThreshold %d, FragThreshold %d",
			c.QueueCap, c.CWmin, c.CWmax, c.RTSThreshold, c.FragThreshold)
	} else if err == nil {
		if lo, hi := pickInt(c.CWmin, s.mode.CWmin), pickInt(c.CWmax, s.mode.CWmax); lo > hi {
			err = fmt.Errorf("core: bad contention window: CWmin %d above CWmax %d", lo, hi)
		}
	}
	return s, err
}

// Validate reports the first Mode, Fading or RateAdapt spec that does not
// parse, a negative FadingCoherence, ShadowSigmaDB or MAC override, a TxPower
// that is not finite, or CWmin above CWmax — the error NewNetwork panics
// with. Commands taking those from a user call it first.
func (c Config) Validate() error {
	_, err := c.resolve()
	return err
}

func parseFading(spec string) (fadingBuilder, error) {
	switch {
	case spec == "" || spec == "none":
		return nil, nil
	case spec == "rayleigh":
		return func(src *rng.Source, coherence sim.Duration) spectrum.Fading {
			return spectrum.NewRayleigh(src, coherence)
		}, nil
	case spec == "rician" || strings.HasPrefix(spec, "rician:"):
		kf := 5.0
		if k, ok := strings.CutPrefix(spec, "rician:"); ok {
			v, err := strconv.ParseFloat(k, 64)
			if err != nil || math.IsNaN(v) || v < 0 || math.IsInf(v, 1) {
				return nil, fmt.Errorf("core: bad fading spec %q", spec)
			}
			kf = v
		}
		return func(src *rng.Source, coherence sim.Duration) spectrum.Fading {
			return spectrum.NewRician(src, kf, coherence)
		}, nil
	}
	return nil, fmt.Errorf("core: unknown fading model %q", spec)
}

func parseRate(spec string, mode *phy.Mode) (rateBuilder, error) {
	fixed := func(idx phy.RateIdx) rateBuilder {
		return func(n *Network, _ string) mac.RateController { return rate.NewFixed(n.mode, idx) }
	}
	switch {
	case spec == "" || spec == "fixed":
		return fixed(mode.MaxRate()), nil
	case strings.HasPrefix(spec, "fixed:"):
		idx, err := strconv.Atoi(spec[len("fixed:"):])
		if err != nil {
			return nil, fmt.Errorf("core: bad rate spec %q", spec)
		}
		if idx < 0 || idx >= len(mode.Rates) {
			return nil, fmt.Errorf("core: bad rate spec %q: %s has rates 0..%d", spec, mode.Name, mode.MaxRate())
		}
		return fixed(phy.RateIdx(idx)), nil
	case spec == "arf":
		return func(n *Network, _ string) mac.RateController { return rate.NewARF(n.mode) }, nil
	case spec == "aarf":
		return func(n *Network, _ string) mac.RateController { return rate.NewAARF(n.mode) }, nil
	case spec == "samplerate":
		return func(n *Network, name string) mac.RateController {
			return rate.NewSampleRate(n.mode, n.root.Split("rc:"+name))
		}, nil
	case spec == "minstrel":
		return func(n *Network, name string) mac.RateController {
			return rate.NewMinstrel(n.mode, n.root.Split("rc:"+name))
		}, nil
	}
	return nil, fmt.Errorf("core: unknown rate adaptation %q", spec)
}

// NewNetwork builds an empty network from the config. It panics with the
// error of cfg.Validate when a spec does not parse.
func NewNetwork(cfg Config) *Network {
	sp, err := cfg.resolve()
	if err != nil {
		panic(err)
	}
	mode := sp.mode
	if cfg.ShortPreamble {
		mode.UseShortPreamble()
	}
	if cfg.Channel == 0 {
		cfg.Channel = 1
	}
	if cfg.TxPower == 0 {
		cfg.TxPower = 16
	}
	if cfg.FadingCoherence == 0 {
		cfg.FadingCoherence = 10 * sim.Millisecond
	}
	k := sim.NewKernel()
	root := rng.New(cfg.Seed)

	pl := cfg.PathLoss
	if pl == nil {
		pl = spectrum.NewLogDistance(phy.ChannelFreq(cfg.Channel), 3.0)
	}
	var shadow spectrum.Fading
	if cfg.ShadowSigmaDB > 0 {
		shadow = spectrum.NewShadowing(root.Split("shadow"), cfg.ShadowSigmaDB)
	}
	var fast spectrum.Fading
	if sp.fading != nil {
		fast = sp.fading(root.Split("fading"), cfg.FadingCoherence)
	}

	m := medium.New(k, spectrum.NewModel(pl, shadow, fast), root)
	m.Tracer = cfg.Tracer

	n := &Network{
		cfg:    cfg,
		kernel: k,
		medium: m,
		mode:   mode,
		rate:   sp.rate,
		root:   root,
		nodes:  make(map[string]*Node),
	}
	n.sink = traffic.NewSink(k)
	if Audit != nil {
		Audit(n)
	}
	return n
}

// Audit, when set, is handed every network NewNetwork builds, before any
// node joins it: an invariant auditor under test hooks the kernel here.
var Audit func(*Network)

// Kernel exposes the simulation kernel for custom scheduling.
func (n *Network) Kernel() *sim.Kernel { return n.kernel }

// Medium exposes the shared channel.
func (n *Network) Medium() *medium.Medium { return n.medium }

// Mode returns the PHY mode in use.
func (n *Network) Mode() *phy.Mode { return n.mode }

// Sink returns the shared measurement sink.
func (n *Network) Sink() *traffic.Sink { return n.sink }

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.order }

// Node returns a node by name (nil if absent).
func (n *Network) Node(name string) *Node { return n.nodes[name] }

// rateController builds a fresh controller per node. An empty spec falls
// back to the network-wide config; a per-node spec that does not parse
// panics.
func (n *Network) rateController(name, spec string) mac.RateController {
	build := n.rate
	if spec != "" {
		var err error
		if build, err = parseRate(spec, n.mode); err != nil {
			panic(err)
		}
	}
	return build(n, name)
}

// claimName panics when a node called name already exists.
func (n *Network) claimName(name string) {
	if _, dup := n.nodes[name]; dup {
		panic(fmt.Sprintf("core: duplicate node name %q", name))
	}
}

// newStack builds radio+MAC for an AP, station or ad-hoc node. Zero opts
// fields fall back to the network-wide config.
func (n *Network) newStack(name string, mob geom.Mobility, opts NodeOpts) (*medium.Radio, *mac.DCF) {
	n.claimName(name)
	r := n.medium.AddRadio(medium.RadioConfig{
		Name:           name,
		Mode:           n.mode,
		Channel:        n.cfg.Channel,
		Mobility:       mob,
		TxPower:        n.cfg.TxPower,
		CaptureEnabled: n.cfg.Capture,
		CaptureMargin:  units.DB(n.cfg.CaptureMarginDB),
	})
	d := mac.New(n.kernel, r, mac.Config{
		Address:       n.alloc.Next(),
		Mode:          n.mode,
		RTSThreshold:  n.cfg.RTSThreshold,
		FragThreshold: n.cfg.FragThreshold,
		CWmin:         pickInt(opts.CWmin, n.cfg.CWmin),
		CWmax:         pickInt(opts.CWmax, n.cfg.CWmax),
		AIFSN:         opts.AIFSN,
		QueueCap:      pickInt(opts.QueueCap, n.cfg.QueueCap),
	}, n.rateController(name, opts.RateAdapt), n.root)
	return r, d
}

func pickInt(v, def int) int {
	if v != 0 {
		return v
	}
	return def
}

func (n *Network) register(node *Node) *Node {
	n.nodes[node.Name] = node
	n.order = append(n.order, node)
	return node
}

// AddAP creates an access point node.
func (n *Network) AddAP(name string, at geom.Point, cfg net80211.APConfig) *Node {
	r, d := n.newStack(name, geom.Static{P: at}, NodeOpts{})
	node := &Node{Name: name, Radio: r, MAC: d, net: n}
	node.AP = net80211.NewAP(n.kernel, d, cfg)
	node.AP.OnDeliver = func(_, _ frame.MACAddr, payload []byte) { n.sink.Deliver(payload) }
	return n.register(node)
}

// AddStation creates an infrastructure station node.
func (n *Network) AddStation(name string, at geom.Point, cfg net80211.STAConfig) *Node {
	return n.AddMobileStation(name, geom.Static{P: at}, cfg)
}

// AddMobileStation creates a station with an arbitrary mobility model.
func (n *Network) AddMobileStation(name string, mob geom.Mobility, cfg net80211.STAConfig) *Node {
	r, d := n.newStack(name, mob, NodeOpts{})
	node := &Node{Name: name, Radio: r, MAC: d, net: n}
	node.STA = net80211.NewSTA(n.kernel, d, cfg)
	node.STA.OnReceive = func(_, _ frame.MACAddr, payload []byte) { n.sink.Deliver(payload) }
	return n.register(node)
}

// AddAdhoc creates an IBSS node (also the workhorse for pure-MAC
// experiments: no association overhead).
func (n *Network) AddAdhoc(name string, at geom.Point) *Node {
	return n.AddAdhocRate(name, at, "")
}

// AddAdhocRate creates an IBSS node with a per-node rate-adaptation
// override (e.g. a deliberately slow station in anomaly experiments).
func (n *Network) AddAdhocRate(name string, at geom.Point, rateSpec string) *Node {
	return n.AddAdhocOpts(name, at, NodeOpts{RateAdapt: rateSpec})
}

// NodeOpts carries per-node overrides of the network-wide MAC defaults.
// Zero fields fall back to the Config values.
type NodeOpts struct {
	// RateAdapt overrides the rate-adaptation policy for this node.
	RateAdapt string
	// CWmin/CWmax/AIFSN model EDCA-style access categories: a privileged
	// node gets a small CWmin and AIFSN 2, a background node large CW and
	// AIFSN 7.
	CWmin, CWmax, AIFSN int
	// QueueCap overrides the transmit queue bound.
	QueueCap int
}

// AddAdhocOpts creates an IBSS node with per-node MAC overrides.
func (n *Network) AddAdhocOpts(name string, at geom.Point, opts NodeOpts) *Node {
	r, d := n.newStack(name, geom.Static{P: at}, opts)
	node := &Node{Name: name, Radio: r, MAC: d, net: n}
	node.Adhoc = net80211.NewAdhoc(n.kernel, d, net80211.IBSSID())
	node.Adhoc.OnReceive = func(_, _ frame.MACAddr, payload []byte) { n.sink.Deliver(payload) }
	return n.register(node)
}

// AddMonitor creates a passive monitor-mode node: its MAC runs promiscuous
// and every overheard frame is handed to the callback. Monitors never
// transmit (nothing is addressed to them, so no ACKs either).
func (n *Network) AddMonitor(name string, at geom.Point, capture func(f *frame.Frame, info medium.RxInfo)) *Node {
	n.claimName(name)
	r := n.medium.AddRadio(medium.RadioConfig{
		Name:     name,
		Mode:     n.mode,
		Channel:  n.cfg.Channel,
		Mobility: geom.Static{P: at},
		TxPower:  n.cfg.TxPower,
	})
	d := mac.New(n.kernel, r, mac.Config{
		Address:     n.alloc.Next(),
		Mode:        n.mode,
		Promiscuous: true,
	}, n.rateController(name, ""), n.root)
	d.SetReceiver(func(f *frame.Frame, info medium.RxInfo) {
		if capture != nil {
			capture(f, info)
		}
	})
	node := &Node{Name: name, Radio: r, MAC: d, net: n}
	return n.register(node)
}

// DS returns (creating on first use) the wired distribution system switch
// and attaches nothing by itself; pass nodes' APs to ConnectDS.
func (n *Network) DS() *ether.Switch {
	if n.switchD == nil {
		n.switchD = ether.NewSwitch(n.kernel, 10*sim.Microsecond)
	}
	return n.switchD
}

// ConnectDS attaches an AP node to the wired DS.
func (n *Network) ConnectDS(ap *Node) {
	if ap.AP == nil {
		panic("core: ConnectDS on a non-AP node")
	}
	ap.AP.AttachDS(n.DS())
}

// AddESS builds an extended service set: one AP per position, all
// beaconing ssid on the shared wired DS, named <ssid>-ap0, <ssid>-ap1, ….
// cfg applies to every AP (its SSID field is overridden); stations joining
// ssid roam between the members, and each re-association drops the
// station's stale entry at its previous AP. Returns the ESS handle and the
// AP nodes in position order.
func (n *Network) AddESS(ssid string, positions []geom.Point, cfg net80211.APConfig) (*net80211.ESS, []*Node) {
	ess := net80211.NewESS(ssid)
	nodes := make([]*Node, len(positions))
	cfg.SSID = ssid
	for i, p := range positions {
		node := n.AddAP(fmt.Sprintf("%s-ap%d", ssid, i), p, cfg)
		n.ConnectDS(node)
		ess.Add(node.AP)
		nodes[i] = node
	}
	return ess, nodes
}

// --- flows -----------------------------------------------------------------

// Saturate attaches a backlogged flow from src to dst and returns its ID.
// The source waits on its MAC queue for room: every send path asks the queue
// first, so a send the full queue refuses is only a count (mac.DCF.Admit). A
// send refused for another reason, such as a station that is not
// associated, is offered again a millisecond later.
func (n *Network) Saturate(src, dst *Node, size int) uint32 {
	n.nextFlow++
	id := n.nextFlow
	dstAddr := dst.Address()
	g := traffic.NewSaturator(n.kernel, id, size, func(p []byte) bool {
		return src.Send(dstAddr, p)
	}, src.MAC)
	n.gens = append(n.gens, g)
	return id
}

// CBR attaches a constant-bit-rate flow.
func (n *Network) CBR(src, dst *Node, size int, interval sim.Duration) uint32 {
	n.nextFlow++
	id := n.nextFlow
	dstAddr := dst.Address()
	g := traffic.NewCBR(n.kernel, id, size, interval, func(p []byte) bool {
		return src.Send(dstAddr, p)
	})
	n.gens = append(n.gens, g)
	return id
}

// Poisson attaches a Poisson flow at pktPerSec.
func (n *Network) Poisson(src, dst *Node, size int, pktPerSec float64) uint32 {
	n.nextFlow++
	id := n.nextFlow
	dstAddr := dst.Address()
	g := traffic.NewPoisson(n.kernel, id, size, pktPerSec,
		n.root.Split(fmt.Sprintf("flow:%d", id)), func(p []byte) bool {
			return src.Send(dstAddr, p)
		})
	n.gens = append(n.gens, g)
	return id
}

// Broadcast attaches a CBR broadcast flow from src.
func (n *Network) Broadcast(src *Node, size int, interval sim.Duration) uint32 {
	n.nextFlow++
	id := n.nextFlow
	g := traffic.NewCBR(n.kernel, id, size, interval, func(p []byte) bool {
		return src.Send(frame.Broadcast, p)
	})
	n.gens = append(n.gens, g)
	return id
}

// Generators returns the attached traffic generators (index = flowID - 1).
func (n *Network) Generators() []*traffic.Generator { return n.gens }

// --- running and results -----------------------------------------------------

// Run advances the scenario by d of virtual time, or by less when a
// callback stops the kernel. With metrics enabled the run is chunked at
// core.MetricsEvery flush boundaries — same events, same order, live
// gauges. Parked saturators are settled before it returns: generator and MAC
// counters read between runs are exact.
func (n *Network) Run(d sim.Duration) {
	start := n.kernel.Now()
	if obs.Enabled() {
		n.runObserved(d)
	} else {
		n.kernel.RunFor(d)
	}
	n.ran += n.kernel.Now().Sub(start)
	for _, g := range n.gens {
		g.Settle()
	}
}

// Elapsed returns total virtual time run so far.
func (n *Network) Elapsed() sim.Duration { return n.ran }

// StopTraffic halts every generator (used before drain phases).
func (n *Network) StopTraffic() {
	for _, g := range n.gens {
		g.Stop()
	}
}

// FlowThroughput returns a flow's goodput in bits/s over the elapsed run
// time (not just first-to-last packet).
func (n *Network) FlowThroughput(flowID uint32) float64 {
	f := n.sink.Flow(flowID)
	if f == nil || n.ran == 0 {
		return 0
	}
	return float64(f.Bytes*8) / n.ran.Seconds()
}

// FlowStats returns the sink-side stats for a flow (nil if no packet
// arrived).
func (n *Network) FlowStats(flowID uint32) *traffic.FlowStats {
	return n.sink.Flow(flowID)
}

// AggregateThroughput sums goodput over all flows.
func (n *Network) AggregateThroughput() float64 {
	if n.ran == 0 {
		return 0
	}
	return float64(n.sink.TotalBytes()*8) / n.ran.Seconds()
}
