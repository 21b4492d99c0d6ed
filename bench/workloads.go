package main

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/wep"
)

// workload is one named set of inputs. Simulation workloads list ops built
// through core; suite workloads (ops == nil) drive the cmd/experiments
// binary, see suite.go.
type workload struct {
	name string
	why  string
	ops  []simOp
	// engine is set on suite workloads: "pool", "shards" or "agents".
	engine string
	// obsAB adds the plain/obs paired repetitions behind obs.overhead_pct
	// to the traced run.
	obsAB bool
}

// simOp is one scenario point: an operation of a simulation workload.
type simOp struct {
	name  string
	build func(seed uint64, tiny bool) *scenario
	// minDelivery is the conservation floor: over all flows, received /
	// (sent − still queued in a MAC) must reach it: flows that must
	// deliver do.
	minDelivery float64
}

// scenario is a built network plus what the checks, digest and probes need.
type scenario struct {
	net     *core.Network
	flows   []uint32
	ess     *net80211.ESS
	payload int
	dur     sim.Duration // timed virtual duration, after the warm-up
	rate    string       // rate controller spec; the transmit probe sends at the rate it pins
	wepKey  wep.Key
	bianchi int // station count for the Bianchi reference, 0 = none
}

// warmUp is the virtual time run in set-up so pools are grown, the first
// grid build is paid and stations are associated before timing starts.
func warmUp(tiny bool) sim.Duration {
	if tiny {
		return 100 * sim.Millisecond
	}
	return 1 * sim.Second
}

// pickDur chooses the timed virtual duration by scale.
func pickDur(tiny bool, tinyDur, full sim.Duration) sim.Duration {
	if tiny {
		return tinyDur
	}
	return full
}

// jitter returns a deterministic offset in [-amp, amp) metres per axis.
func jitter(r *rand.Rand, amp float64) geom.Vector {
	return geom.Vector{X: (r.Float64()*2 - 1) * amp, Y: (r.Float64()*2 - 1) * amp}
}

// dcfOp: n saturated 1500 B senders on a jittered 3 m ring around one sink.
func dcfOp(n int, full sim.Duration) simOp {
	return simOp{
		name:        fmt.Sprintf("n%d", n),
		minDelivery: 0.9,
		build: func(seed uint64, tiny bool) *scenario {
			r := rand.New(rand.NewSource(int64(seed)))
			net := core.NewNetwork(core.Config{Seed: seed})
			sink := net.AddAdhoc("sink", geom.Pt(0, 0))
			s := &scenario{net: net, payload: 1500, bianchi: n,
				dur: pickDur(tiny, 200*sim.Millisecond, full)}
			for i, p := range geom.Circle(n, 3, geom.Pt(0, 0)) {
				sta := net.AddAdhoc(fmt.Sprintf("sta%d", i), p.Add(jitter(r, 0.5)))
				s.flows = append(s.flows, net.Saturate(sta, sink, s.payload))
			}
			return s
		},
	}
}

// cityOp: static ad-hoc radios on a jittered grid, Poisson neighbour pairs.
func cityOp(name string, pitch float64, rateAdapt string, full sim.Duration) simOp {
	return simOp{
		name:        name,
		minDelivery: 0.8,
		build: func(seed uint64, tiny bool) *scenario {
			r := rand.New(rand.NewSource(int64(seed)))
			n := 729 // 27 columns: neighbour ids spread over the link cache's 64 ways (32 or 33 columns alias)
			if tiny {
				n = 100
			}
			net := core.NewNetwork(core.Config{Seed: seed, TxPower: 2, RateAdapt: rateAdapt})
			s := &scenario{net: net, payload: 200, rate: rateAdapt,
				dur: pickDur(tiny, 200*sim.Millisecond, full)}
			nodes := make([]*core.Node, n)
			for i, p := range geom.Grid(n, pitch, geom.Pt(0, 0)) {
				nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), p.Add(jitter(r, pitch/10)))
			}
			for i := 0; i+1 < n; i += 2 {
				s.flows = append(s.flows, net.Poisson(nodes[i], nodes[i+1], s.payload, 4))
			}
			return s
		},
	}
}

// roamOp: a staggered cohort walking an ESS corridor at 12 m/s with uplink
// CBR to the first AP, so post-roam traffic crosses the DS.
func roamOp(name string, key wep.Key) simOp {
	return simOp{
		name:        name,
		minDelivery: 0.7,
		build: func(seed uint64, tiny bool) *scenario {
			r := rand.New(rand.NewSource(int64(seed)))
			nAPs, stas := 6, 24
			if tiny {
				nAPs, stas = 2, 3
			}
			net := core.NewNetwork(core.Config{Seed: seed})
			positions := make([]geom.Point, nAPs)
			for i := range positions {
				positions[i] = geom.Pt(float64(i)*80, 0)
			}
			ess, aps := net.AddESS("city", positions, net80211.APConfig{WEPKey: key})
			// The run lasts until the most-staggered station clears the
			// last AP by 15 m.
			walk := (80*float64(nAPs-1) + 15 - (5 - 8*float64(stas-1))) / 12
			s := &scenario{net: net, ess: ess, payload: 300, wepKey: key,
				dur: sim.Duration(math.Ceil(walk))*sim.Second - warmUp(tiny)}
			for j := 0; j < stas; j++ {
				mob := geom.Linear{
					Start:    geom.Pt(5-8*float64(j), 2-float64(j%3)*2).Add(jitter(r, 0.5)),
					Velocity: geom.Vector{X: 12},
				}
				sta := net.AddMobileStation(fmt.Sprintf("sta%d", j), mob, net80211.STAConfig{
					SSID: "city", RoamThreshold: -65, RoamHysteresis: 6, WEPKey: key,
				})
				s.flows = append(s.flows, net.CBR(sta, aps[0], s.payload, 100*sim.Millisecond))
			}
			return s
		},
	}
}

// fadingOp: 16 saturated pairs on 802.11a under shadowing and Rayleigh
// fading, one rate controller per op.
func fadingOp(ctrl string, full sim.Duration) simOp {
	return simOp{
		name:        ctrl,
		minDelivery: 0.9,
		build: func(seed uint64, tiny bool) *scenario {
			r := rand.New(rand.NewSource(int64(seed)))
			net := core.NewNetwork(core.Config{Seed: seed, Mode: "802.11a",
				RateAdapt: ctrl, ShadowSigmaDB: 4, Fading: "rayleigh"})
			s := &scenario{net: net, payload: 1200, rate: ctrl,
				dur: pickDur(tiny, 200*sim.Millisecond, full)}
			for i, p := range geom.Circle(16, 25, geom.Pt(0, 0)) {
				a := net.AddAdhoc(fmt.Sprintf("a%d", i), p.Add(jitter(r, 2)))
				b := net.AddAdhoc(fmt.Sprintf("b%d", i), p.Add(geom.Vector{X: 15}).Add(jitter(r, 2)))
				s.flows = append(s.flows, net.Saturate(a, b, s.payload))
			}
			return s
		},
	}
}

// suiteIDs are the full-mode sweeps the suite workloads run, one op each.
var suiteIDs = []string{"F1", "F6", "F7", "E2", "E3"}

var workloads = []workload{
	{
		name:  "dcf-saturation",
		obsAB: true,
		why:   "one collision domain, few radios: kernel timers, same-timestamp cohorts and the MAC state machine do the work; spatial index and link cache idle",
		ops: []simOp{
			dcfOp(5, 200*sim.Second),
			dcfOp(20, 50*sim.Second),
			dcfOp(50, 17*sim.Second),
		},
	},
	{
		name: "city-grid",
		why:  "729 static radios: grid fan-out, link physics, arrival pooling and memory dominate; dense/sparse pitches sit either side of the 64-way link cache",
		ops: []simOp{
			cityOp("dense", 15, "", 4*sim.Second),
			cityOp("sparse", 45, "fixed:0", 5*sim.Second),
		},
	},
	{
		name: "roaming-wave",
		why:  "mobile cohort on an ESS corridor: position refresh, cell migration and link invalidation beside reads; only load on net80211, ether and wep",
		ops: []simOp{
			roamOp("open", nil),
			roamOp("wep", wep.Key("bench-wep-key")),
		},
	},
	{
		name: "fading-rateadapt",
		why:  "shadowing + Rayleigh fading make the channel ineligible for the grid index: neighbour lists, fading draws, memo-hostile PHY error model and rate controllers do the work",
		ops: []simOp{
			fadingOp("arf", 13*sim.Second),
			fadingOp("aarf", 13*sim.Second),
			fadingOp("samplerate", 13*sim.Second),
			fadingOp("minstrel", 13*sim.Second),
		},
	},
	{
		name:   "suite-pool",
		why:    "full-mode experiments -csv on the in-process worker pool, the path every user takes: per-point construction, grid skew and shared GC",
		engine: "pool",
	},
	{
		name:   "suite-shards",
		why:    "the same sweeps with -shards nproc: static LPT over re-exec'd subprocesses pays process start, wire encode/parse and merge per experiment",
		engine: "shards",
	},
	{
		name:   "suite-agents",
		why:    "the same sweeps with -agents on loopback: cost-ordered work stealing over TCP with persistent agents; differs from pool/shards only in control plane",
		engine: "agents",
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
