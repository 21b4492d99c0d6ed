package harness

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/units"
)

func init() {
	register(&Experiment{
		ID:     "F4",
		Title:  "Rate adaptation vs distance under Rayleigh fading",
		Expect: "every controller delivers 1 Mbit/s or more at the nearest distance; at the farthest, fixed top rate has collapsed below the best adaptive driver",
		Grid:   gridF4,
		Check: holds(func(c *claim) {
			near, far := c.ends()
			for col := 1; col <= 5; col++ {
				c.that(c.num(near, col) >= 1, "distance %s m: %s only %s Mbit/s", c.str(near, 0), c.t.Columns[col], c.str(near, col))
			}
			best := math.Inf(-1)
			for col := 2; col <= 5; col++ {
				best = max(best, c.num(far, col))
			}
			c.that(best > c.num(far, 1), "distance %s m: best adaptive %.2f Mbit/s does not beat fixed %s", c.str(far, 0), best, c.str(far, 1))
		}),
	})
	register(&Experiment{
		ID:     "F5",
		Title:  "802.11b performance anomaly: one slow station drags everyone down",
		Expect: "adding a 1 Mbit/s station at least halves an 11 Mbit/s station's throughput and brings it within 3× of the slow station's",
		Grid:   gridF5,
		Check: holds(func(c *claim) {
			before, with := c.row("3 fast stations"), c.row("3 fast + 1 slow (1 Mbit/s)")
			fastBefore, fast, slow := c.num(before, 1), c.num(with, 1), c.num(with, 4)
			c.that(fast <= fastBefore/2, "fast1 barely affected by the slow station: %.2f -> %.2f Mbit/s", fastBefore, fast)
			c.that(fast <= 3*slow && slow <= 3*fast, "with the slow station: fast1 %.2f and slow %.2f Mbit/s are not within 3×", fast, slow)
		}),
	})
	register(&Experiment{
		ID:     "F8",
		Title:  "Fragmentation threshold on an erasure channel",
		Expect: "on the noisy link 512-byte fragments beat unfragmented frames; on the clean link the same fragmentation is pure overhead",
		Grid:   gridF8,
		Check: holds(func(c *claim) {
			whole, frag := c.row("2346"), c.row("512")
			c.that(c.num(frag, 1) > c.num(whole, 1), "noisy: threshold 512 %s Mbit/s does not beat 2346's %s", c.str(frag, 1), c.str(whole, 1))
			c.that(c.num(frag, 2) < c.num(whole, 2), "clean: threshold 512 %s Mbit/s does not cost against 2346's %s", c.str(frag, 2), c.str(whole, 2))
		}),
	})
}

// gridF4 sweeps controller × distance on a fading 802.11a channel.
func gridF4(quick bool) *Grid {
	controllers := []string{"fixed", "arf", "aarf", "samplerate", "minstrel"}
	cols := append([]string{"distance m"}, controllers...)
	t := stats.NewTable("F4: goodput (Mbit/s) vs distance, 802.11a, Rayleigh fading", cols...)
	t.Note = "fixed = pinned to 54 Mbit/s; adaptive drivers start at the lowest basic rate"
	dists := pick(quick, []float64{15, 45, 75}, []float64{10, 20, 30, 40, 55, 70, 85, 100})
	dur := runDur(quick, 1*sim.Second, 3*sim.Second)
	return &Grid{Table: t, N: len(dists), Point: single(func(i int) []string {
		d := dists[i]
		row := []string{stats.F(d, 0)}
		for ci, ctrl := range controllers {
			net := core.NewNetwork(core.Config{
				Seed:      uint64(400 + int(d) + ci),
				Mode:      "802.11a",
				RateAdapt: ctrl,
				Fading:    "rayleigh",
				PathLoss:  spectrum.NewLogDistance(5_200*units.MHz, 3.0),
			})
			a := net.AddAdhoc("a", geom.Pt(0, 0))
			b := net.AddAdhoc("b", geom.Pt(d, 0))
			flow := net.Saturate(a, b, 1200)
			net.Run(dur)
			row = append(row, stats.Mbps(net.FlowThroughput(flow)))
		}
		return row
	})}
}

// gridF5 reproduces the Heusse et al. performance anomaly.
func gridF5(quick bool) *Grid {
	t := stats.NewTable("F5: performance anomaly (saturated uplink, 1000B)",
		"scenario", "fast1", "fast2", "fast3", "slow", "agg Mbit/s")
	t.Note = "per-frame fairness of DCF equalizes frame rates, not airtime: slow frames starve everyone"
	dur := runDur(quick, 2*sim.Second, 5*sim.Second)

	run := func(withSlow bool) []float64 {
		net := core.NewNetwork(core.Config{Seed: 500, RateAdapt: "fixed:3"})
		sink := net.AddAdhoc("sink", geom.Pt(0, 0))
		pts := geom.Circle(4, 4, geom.Pt(0, 0))
		var flows []uint32
		for i := 0; i < 3; i++ {
			s := net.AddAdhoc(fmt.Sprintf("fast%d", i), pts[i])
			flows = append(flows, net.Saturate(s, sink, 1000))
		}
		if withSlow {
			slow := net.AddAdhocOpts("slow", pts[3], core.NodeOpts{RateAdapt: "fixed:0"}) // pinned to 1 Mbit/s
			flows = append(flows, net.Saturate(slow, sink, 1000))
		}
		net.Run(dur)
		return perFlowThroughput(net, flows)
	}

	return &Grid{Table: t, N: 2, Point: single(func(i int) []string {
		if i == 0 {
			fastOnly := run(false)
			return []string{"3 fast stations",
				stats.Mbps(fastOnly[0]), stats.Mbps(fastOnly[1]), stats.Mbps(fastOnly[2]), "-",
				stats.Mbps(fastOnly[0] + fastOnly[1] + fastOnly[2])}
		}
		withSlow := run(true)
		agg := withSlow[0] + withSlow[1] + withSlow[2] + withSlow[3]
		return []string{"3 fast + 1 slow (1 Mbit/s)",
			stats.Mbps(withSlow[0]), stats.Mbps(withSlow[1]), stats.Mbps(withSlow[2]),
			stats.Mbps(withSlow[3]), stats.Mbps(agg)}
	})}
}

// gridF8 sweeps the fragmentation threshold on a fixed-SINR noisy channel
// and on a clean channel.
func gridF8(quick bool) *Grid {
	t := stats.NewTable("F8: fragmentation threshold (1500B MSDU, 11 Mbit/s)",
		"frag threshold", "noisy Mbit/s", "clean Mbit/s")
	t.Note = "noisy channel: full-size MPDU PER ≈ 0.6; fragments fail (and retry) independently"
	mode := phy.Mode80211b()
	// Pick a loss that puts a full-size MPDU at ~60% PER.
	sinr := mode.SINRForPER(3, 1528, 0.6)
	noisyRx := mode.NoiseFloorDBm(7).Add(units.DBFromLinear(sinr))
	noisyLoss := units.DB(16 - float64(noisyRx))

	frags := pick(quick, []int{2346, 512}, []int{2346, 1500, 1024, 512, 256})
	dur := runDur(quick, 2*sim.Second, 5*sim.Second)
	return &Grid{Table: t, N: len(frags), Point: single(func(i int) []string {
		fragTh := frags[i]
		row := []string{fmt.Sprint(fragTh)}
		for _, noisy := range []bool{true, false} {
			cfg := core.Config{Seed: uint64(800 + fragTh), FragThreshold: fragTh}
			if noisy {
				cfg.PathLoss = spectrum.FixedLoss{DB: noisyLoss}
			}
			net := core.NewNetwork(cfg)
			a := net.AddAdhoc("a", geom.Pt(0, 0))
			b := net.AddAdhoc("b", geom.Pt(10, 0))
			flow := net.Saturate(a, b, 1500)
			net.Run(dur)
			row = append(row, stats.Mbps(net.FlowThroughput(flow)))
		}
		return row
	})}
}
