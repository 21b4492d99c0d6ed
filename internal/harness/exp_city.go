package harness

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// The E family is the city-scale suite enabled by the medium's
// range-pruned fan-out rows and the net80211 ESS layer: E1 pushes raw radio density, E2 walks
// a station cohort across a multi-AP corridor, E3 drops a flash crowd on a
// single AP. All three carry Cost hints so the sweep scheduler's work
// stealing balances their heavily skewed grids.

func init() {
	register(&Experiment{
		ID:     "E1",
		Title:  "City scale: event rate and per-node goodput vs radio density",
		Expect: "events per virtual second grow near-linearly with N under spatial fan-out (all-pairs would be quadratic); per-node goodput holds until local contention bites",
		Grid:   gridE1,
	})
	register(&Experiment{
		ID:     "E2",
		Title:  "Roaming wave: station cohort walking a multi-AP ESS corridor",
		Expect: "every station roams once per AP span; handoff announcements keep exactly one association per station and delivery stays high through the wave",
		Grid:   gridE2,
	})
	register(&Experiment{
		ID:     "E3",
		Title:  "Hotspot congestion: Poisson flash crowd on one AP",
		Expect: "aggregate goodput saturates as the crowd grows while mean and tail latency inflate — classic DCF congestion collapse onset",
		Grid:   gridE3,
	})
}

// e1Point holds one evaluated E1 density point (shared with the golden
// trace, which pins a small fixed instance of the same scenario).
type e1Point struct {
	net    *core.Network
	flows  []uint32
	events uint64
	flowTotals
}

// e1Scenario builds and runs an n-radio adhoc grid: radios on a 15 m
// pitch, every even radio sending a light Poisson uplink to its right-hand
// neighbour (Poisson rather than CBR so the flows do not all fire in
// lock-step). Low transmit power keeps detection ranges local, which is
// what lets range-pruned fan-out rows hold fan-out cost constant per
// transmission as n grows.
func e1Scenario(seed uint64, n int, dur sim.Duration) e1Point {
	net := core.NewNetwork(core.Config{Seed: seed, TxPower: 2})
	pts := geom.Grid(n, 15, geom.Pt(0, 0))
	nodes := make([]*core.Node, n)
	for i := 0; i < n; i++ {
		nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), pts[i])
	}
	var flows []uint32
	for i := 0; i+1 < n; i += 2 {
		flows = append(flows, net.Poisson(nodes[i], nodes[i+1], 200, 4))
	}
	net.Run(dur)

	return e1Point{net: net, flows: flows, events: net.Kernel().Processed(), flowTotals: totals(net, flows, false, nil)}
}

func gridE1(quick bool) *Grid {
	t := stats.NewTable("E1: density scaling (adhoc grid, 15 m pitch, Poisson 4/s 200B pairs)",
		"radios", "events/vs", "per-node bps", "delivery %")
	t.Note = "events/vs counts kernel events per virtual second — the fan-out cost the spatial index keeps sublinear in N"
	sizes := pick(quick, []int{50, 200}, []int{100, 300, 1000, 3000, 10000})
	dur := runDur(quick, 1*sim.Second, 2*sim.Second)
	return &Grid{Table: t, N: len(sizes),
		Cost: func(i int) float64 { return CostByNodes(dur, sizes[i]) },
		Point: single(func(i int) []string {
			n := sizes[i]
			p := e1Scenario(sim.DeriveSeed(0xE1, uint64(n)), n, dur)
			perNode := sumThroughput(p.net, p.flows) / float64(n)
			evPerVS := float64(p.events) / dur.Seconds()
			return []string{fmt.Sprint(n), stats.F(evPerVS, 0),
				stats.F(perNode, 0), stats.F(p.delivery(), 1)}
		})}
}

// e2Result carries the state the E2 table and golden trace read.
type e2Result struct {
	net      *core.Network
	ess      *net80211.ESS
	stas     []*core.Node
	flows    []uint32
	dur      sim.Duration
	lastName string
}

// e2Scenario walks a cohort of stations down an ESS corridor: nAPs APs
// 80 m apart on one DS, stations entering staggered from the left at
// 12 m/s with uplink CBR to the first AP (so post-roam traffic crosses
// the DS). The run lasts until the most-staggered station clears the last
// AP.
func e2Scenario(seed uint64, nAPs, stas int) e2Result {
	net := core.NewNetwork(core.Config{Seed: seed})
	positions := make([]geom.Point, nAPs)
	for i := range positions {
		positions[i] = geom.Pt(float64(i)*80, 0)
	}
	ess, aps := net.AddESS("city", positions, net80211.APConfig{})

	r := e2Result{net: net, ess: ess, dur: e2Dur(nAPs, stas), lastName: aps[len(aps)-1].Name}
	for j := 0; j < stas; j++ {
		mob := geom.Linear{
			Start:    geom.Pt(5-8*float64(j), 2-float64(j%3)*2),
			Velocity: geom.Vector{X: 12},
		}
		sta := net.AddMobileStation(fmt.Sprintf("sta%d", j), mob, net80211.STAConfig{
			SSID: "city", RoamThreshold: -65, RoamHysteresis: 6,
		})
		r.stas = append(r.stas, sta)
		r.flows = append(r.flows, net.CBR(sta, aps[0], 300, 100*sim.Millisecond))
	}
	net.Run(r.dur)
	return r
}

// e2Dur is the corridor walk time: the most-staggered station must clear
// the far AP by 15 m at 12 m/s, rounded up to whole seconds so the run
// length is stable against small geometry tweaks.
func e2Dur(nAPs, stas int) sim.Duration {
	corridor := 80 * float64(nAPs-1)
	start := 5 - 8*float64(stas-1)
	return sim.Duration(math.Ceil((corridor+15-start)/12)) * sim.Second
}

func gridE2(quick bool) *Grid {
	t := stats.NewTable("E2: roaming wave across an ESS corridor (80 m AP pitch, walk 12 m/s, uplink CBR 10/s)",
		"APs", "stations", "roams", "handoffs", "delivery %", "max outage ms", "on final AP")
	t.Note = "handoffs counts stale associations dropped by DS announcements; the wave ends with the cohort on the last AP"
	type point struct{ aps, stas int }
	pts := pick(quick, []point{{3, 3}}, []point{{4, 4}, {5, 8}, {5, 16}})
	return &Grid{Table: t, N: len(pts),
		Cost: func(i int) float64 { return CostByNodes(e2Dur(pts[i].aps, pts[i].stas), pts[i].aps+pts[i].stas) },
		Point: single(func(i int) []string {
			p := pts[i]
			r := e2Scenario(sim.DeriveSeed(0xE2, uint64(p.aps)<<16|uint64(p.stas)), p.aps, p.stas)
			roams, final := 0, 0
			for _, sta := range r.stas {
				roams += int(sta.STA.Stats.Roams)
				if r.ess.ServingAP(sta.Address()) == r.net.Node(r.lastName).AP {
					final++
				}
			}
			outage := 0.0
			f := totals(r.net, r.flows, false, func(fs *traffic.FlowStats) {
				if o := fs.MaxGap.Seconds() * 1000; o > outage {
					outage = o
				}
			})
			return []string{fmt.Sprint(p.aps), fmt.Sprint(p.stas), fmt.Sprint(roams),
				fmt.Sprint(r.ess.Handoffs()), stats.F(f.delivery(), 1),
				stats.F(outage, 0), fmt.Sprint(final)}
		})}
}

// e3Result carries the state the E3 table and golden trace read.
type e3Result struct {
	net   *core.Network
	flows []uint32
	dur   sim.Duration
}

// e3Scenario drops a flash crowd on one AP: stas stations associate at
// start-up, then each activates a 20 pkt/s Poisson uplink flow at a
// Poisson arrival time inside the crowd window (sorted uniform order
// statistics — a Poisson process conditioned on its count).
func e3Scenario(seed uint64, stas int, window, tail sim.Duration) e3Result {
	net := core.NewNetwork(core.Config{Seed: seed})
	ap := net.AddAP("hotspot", geom.Pt(0, 0), net80211.APConfig{SSID: "hot"})
	nodes := make([]*core.Node, stas)
	for i, pt := range geom.Circle(stas, 12, geom.Pt(0, 0)) {
		nodes[i] = net.AddStation(fmt.Sprintf("sta%d", i), pt, net80211.STAConfig{SSID: "hot"})
	}
	arrivals := make([]float64, stas)
	src := rng.New(sim.DeriveSeed(seed, 0xA331)).Split("e3:arrivals")
	for i := range arrivals {
		arrivals[i] = src.Float64()
	}
	sort.Float64s(arrivals)

	const warm = 1 * sim.Second
	net.Run(warm)
	r := e3Result{net: net, dur: warm}
	for i, u := range arrivals {
		at := warm + sim.Duration(u*float64(window))
		if at > r.dur {
			net.Run(at - r.dur)
			r.dur = at
		}
		r.flows = append(r.flows, net.Poisson(nodes[i], ap, 200, 20))
	}
	end := warm + window + tail
	net.Run(end - r.dur)
	r.dur = end
	return r
}

func gridE3(quick bool) *Grid {
	t := stats.NewTable("E3: hotspot flash crowd (single AP, Poisson uplink 20/s per station, 200B)",
		"stations", "agg Mbit/s", "delivery %", "mean ms", "worst p95 ms")
	t.Note = "flows activate at Poisson arrival times inside the crowd window; latency is received-weighted across flows"
	crowds := pick(quick, []int{8}, []int{16, 32, 64})
	window := runDur(quick, 1*sim.Second, 2*sim.Second)
	tail := runDur(quick, 1500*sim.Millisecond, 2*sim.Second)
	return &Grid{Table: t, N: len(crowds),
		Cost: func(i int) float64 { return CostByNodes(window+tail, crowds[i]) },
		Point: single(func(i int) []string {
			stas := crowds[i]
			r := e3Scenario(sim.DeriveSeed(0xE3, uint64(stas)), stas, window, tail)
			var bits, worstP95 float64
			f := totals(r.net, r.flows, false, func(fs *traffic.FlowStats) {
				bits += float64(fs.Bytes) * 8
				if p := fs.LatencyH.Quantile(0.95); p > worstP95 {
					worstP95 = p
				}
			})
			agg := bits / r.dur.Seconds() / 1e6
			return []string{fmt.Sprint(stas), stats.F(agg, 2), stats.F(f.delivery(), 1),
				stats.F(f.meanDelay*1000, 2), stats.F(worstP95*1000, 2)}
		})}
}
