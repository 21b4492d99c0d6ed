package harness

import (
	"fmt"

	"repro/internal/analytical"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func init() {
	register(&Experiment{
		ID:     "T1",
		Title:  "PHY comparison: nominal vs achieved throughput per standard",
		Expect: "achieved goodput below nominal; legacy FHSS is more efficient than 802.11a, and ERP-g trails 802.11a by its slot+signal-extension overhead",
		Grid:   gridT1,
		Check: holds(func(c *claim) {
			for _, r := range c.t.Rows {
				nominal, achieved := c.num(r, 1), c.num(r, 2)
				c.that(achieved > 0 && achieved < nominal, "%s: achieved %.2f Mbit/s, want above 0 and below nominal %.2f", c.name(r), achieved, nominal)
			}
			legacy, a, g := c.num(c.row("802.11"), 3), c.num(c.row("802.11a"), 3), c.num(c.row("802.11g"), 3)
			c.that(legacy > a, "standard 802.11: efficiency %.1f %% does not exceed 802.11a's %.1f %%", legacy, a)
			c.that(g < a, "standard 802.11g: efficiency %.1f %% does not trail 802.11a's %.1f %%", g, a)
		}),
	})
	register(&Experiment{
		ID:     "F1",
		Title:  "DCF saturation throughput vs station count (basic vs RTS/CTS) vs Bianchi",
		Expect: "simulated basic-access throughput is within ±15 % of Bianchi's model at every n",
		Grid:   gridF1,
		Check: holds(func(c *claim) {
			for _, r := range c.t.Rows {
				sim, bianchi := c.num(r, 1), c.num(r, 3)
				rel := (sim - bianchi) / bianchi
				c.that(sim > 0 && rel >= -0.15 && rel <= 0.15, "%s: basic %.2f Mbit/s vs Bianchi %.2f (%+.1f %%)", c.name(r), sim, bianchi, 100*rel)
			}
		}),
	})
	register(&Experiment{
		ID:     "F2",
		Title:  "Delivered throughput and delay vs offered load",
		Expect: "the lowest offered load loses at most 3 %; past the capacity knee the highest loses at least 10 % and its mean delay is at least 3× the lowest load's",
		Grid:   gridF2,
		Check: holds(func(c *claim) {
			lo, hi := c.ends()
			c.that(c.num(lo, 2) <= 3, "offered %s: loss %s %% above 3 %%", c.str(lo, 0), c.str(lo, 2))
			c.that(c.num(hi, 2) >= 10, "offered %s: loss %s %% below 10 %%", c.str(hi, 0), c.str(hi, 2))
			c.that(c.num(hi, 3) >= 3*c.num(lo, 3), "offered %s: mean delay %s ms not 3× the %s ms at %s", c.str(hi, 0), c.str(hi, 3), c.str(lo, 3), c.str(lo, 0))
		}),
	})
	register(&Experiment{
		ID:     "F6",
		Title:  "Jain fairness index vs station count (saturated DCF)",
		Expect: "long-run per-station fairness stays near 1.0",
		Grid:   gridF6,
		Check: holds(func(c *claim) {
			for _, r := range c.t.Rows {
				c.that(c.num(r, 1) >= 0.9, "%s: Jain index %s below 0.9", c.name(r), c.str(r, 1))
			}
		}),
	})
	register(&Experiment{
		ID:     "F7",
		Title:  "Contention window ablation: CWmin vs throughput at low/high n",
		Expect: "at n = 20 a small CW collapses on collisions: CWmin 7 loses to CWmin 255",
		Grid:   gridF7,
		Check: holds(func(c *claim) {
			small, big := c.num(c.row("7"), 2), c.num(c.row("255"), 2)
			c.that(small < big, "n=20: CWmin 7 %.2f Mbit/s does not lose to CWmin 255 %.2f", small, big)
		}),
	})
}

// gridT1 reproduces the supplied text's comparison table: one saturated
// station per PHY standard, nominal top rate vs achieved goodput.
func gridT1(quick bool) *Grid {
	t := stats.NewTable("T1: PHY comparison (1 STA, saturated, 1472B payload, 5 m)",
		"standard", "nominal Mbit/s", "achieved Mbit/s", "efficiency %")
	t.Note = "efficiency gap comes from PLCP preamble, IFS, backoff and ACK overheads"
	dur := runDur(quick, 1*sim.Second, 4*sim.Second)
	modes := []string{"802.11", "802.11b", "802.11a", "802.11g"}
	return &Grid{Table: t, N: len(modes), Point: single(func(i int) []string {
		modeName := modes[i]
		net := core.NewNetwork(core.Config{Seed: 11, Mode: modeName})
		a := net.AddAdhoc("a", geom.Pt(0, 0))
		b := net.AddAdhoc("b", geom.Pt(5, 0))
		flow := net.Saturate(a, b, 1472)
		net.Run(dur)
		nominal := float64(net.Mode().Rate(net.Mode().MaxRate()).BitRate)
		achieved := net.FlowThroughput(flow)
		return []string{modeName, stats.Mbps(nominal), stats.Mbps(achieved),
			stats.F(100*achieved/nominal, 1)}
	})}
}

// gridF1 sweeps saturated station counts for basic and RTS/CTS access and
// overlays Bianchi's model.
func gridF1(quick bool) *Grid {
	t := stats.NewTable("F1: saturation throughput vs n (802.11b, 11 Mbit/s, 1500B)",
		"n", "basic Mbit/s", "rts Mbit/s", "bianchi basic", "bianchi rts")
	t.Note = "bianchi columns are the analytical saturation throughput at the same PHY, rate and payload"
	ns := pick(quick, []int{1, 5, 10}, []int{1, 2, 5, 10, 15, 20, 30, 40, 50})
	dur := runDur(quick, 1500*sim.Millisecond, 5*sim.Second)
	const payload = 1500
	// The grid is heavily skewed: a 50-station point simulates an order of
	// magnitude more events than a 1-station point, so schedulers need the
	// hint to balance shards by work rather than point count.
	cost := func(i int) float64 { return CostByNodes(dur, ns[i]) }
	return &Grid{Table: t, N: len(ns), Cost: cost, Point: single(func(i int) []string {
		n := ns[i]
		basicNet, _, basicFlows := star(core.Config{Seed: uint64(100 + n)}, n, payload)
		basicNet.Run(dur)
		basic := sumThroughput(basicNet, basicFlows)

		rtsNet, _, rtsFlows := star(core.Config{Seed: uint64(200 + n), RTSThreshold: 1}, n, payload)
		rtsNet.Run(dur)
		rts := sumThroughput(rtsNet, rtsFlows)

		prm := analytical.BianchiParams{Mode: phy.Mode80211b(), DataRate: 3, PayloadBytes: payload}
		anaBasic := analytical.Bianchi(n, prm).Throughput
		prm.RTS = true
		anaRTS := analytical.Bianchi(n, prm).Throughput

		return []string{fmt.Sprint(n), stats.Mbps(basic), stats.Mbps(rts),
			stats.Mbps(anaBasic), stats.Mbps(anaRTS)}
	})}
}

// gridF2 sweeps Poisson offered load through a 10-station BSS.
func gridF2(quick bool) *Grid {
	t := stats.NewTable("F2: delivered throughput & delay vs offered load (10 stations, 1000B)",
		"offered Mbit/s", "delivered Mbit/s", "loss %", "mean delay ms", "p95 delay ms")
	t.Note = "offered load counts generator arrivals; loss includes queue drops"
	const nSta = 10
	const payload = 1000
	loads := pick(quick,
		[]float64{2e6, 5e6, 8e6},
		[]float64{1e6, 2e6, 3e6, 4e6, 5e6, 6e6, 7e6, 8e6, 10e6})
	dur := runDur(quick, 2*sim.Second, 5*sim.Second)
	return &Grid{Table: t, N: len(loads), Point: single(func(i int) []string {
		load := loads[i]
		net := core.NewNetwork(core.Config{Seed: uint64(load / 1e5)})
		sink := net.AddAdhoc("sink", geom.Pt(0, 0))
		pts := geom.Circle(nSta, 3, geom.Pt(0, 0))
		flows := make([]uint32, nSta)
		pps := load / nSta / (8 * payload)
		for i := 0; i < nSta; i++ {
			s := net.AddAdhoc(fmt.Sprintf("sta%d", i), pts[i])
			flows[i] = net.Poisson(s, sink, payload, pps)
		}
		net.Run(dur)

		delivered := sumThroughput(net, flows)
		var latH stats.Histogram
		f := totals(net, flows, true, func(fs *traffic.FlowStats) { latH.Add(fs.LatencyH.Quantile(0.95)) })
		loss := 0.0
		if f.sent > 0 {
			loss = 100 * (1 - float64(f.received)/float64(f.sent))
		}
		return []string{stats.Mbps(load), stats.Mbps(delivered), stats.F(loss, 1),
			stats.F(f.meanDelay*1000, 2), stats.F(latH.Quantile(1)*1000, 2)}
	})}
}

// gridF6 computes Jain's fairness index across saturated stations.
func gridF6(quick bool) *Grid {
	t := stats.NewTable("F6: Jain fairness vs station count (saturated 802.11b)",
		"n", "jain index", "min/max ratio", "agg Mbit/s")
	ns := pick(quick, []int{2, 10}, []int{2, 5, 10, 20, 35})
	dur := runDur(quick, 2*sim.Second, 5*sim.Second)
	cost := func(i int) float64 { return CostByNodes(dur, ns[i]) }
	return &Grid{Table: t, N: len(ns), Cost: cost, Point: single(func(i int) []string {
		n := ns[i]
		net, _, flows := star(core.Config{Seed: uint64(600 + n)}, n, 1000)
		net.Run(dur)
		per := perFlowThroughput(net, flows)
		minV, maxV := per[0], per[0]
		for _, v := range per {
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		ratio := 0.0
		if maxV > 0 {
			ratio = minV / maxV
		}
		return []string{fmt.Sprint(n), stats.F(stats.JainIndex(per), 4),
			stats.F(ratio, 3), stats.Mbps(sumThroughput(net, flows))}
	})}
}

// gridF7 ablates CWmin at two contention levels.
func gridF7(quick bool) *Grid {
	t := stats.NewTable("F7: CWmin ablation (802.11b, 1000B, saturated)",
		"CWmin", "n=5 Mbit/s", "n=20 Mbit/s")
	t.Note = "small CW: collision losses at n=20; large CW: idle-slot waste at n=5"
	cws := pick(quick, []int{7, 31, 255}, []int{7, 15, 31, 63, 127, 255})
	dur := runDur(quick, 1500*sim.Millisecond, 4*sim.Second)
	return &Grid{Table: t, N: len(cws), Point: single(func(i int) []string {
		cw := cws[i]
		row := []string{fmt.Sprint(cw)}
		for _, n := range []int{5, 20} {
			net, _, flows := star(core.Config{
				Seed: uint64(700 + cw + n), CWmin: cw, CWmax: 1023,
			}, n, 1000)
			net.Run(dur)
			row = append(row, stats.Mbps(sumThroughput(net, flows)))
		}
		return row
	})}
}
