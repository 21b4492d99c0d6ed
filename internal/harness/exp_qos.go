package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/stats"
)

func init() {
	register(&Experiment{
		ID:     "F13",
		Title:  "Priority access (EDCA-style AIFS/CW differentiation) under load",
		Expect: "a voice-class station (AIFSN 2, CW 7) keeps its mean latency at 5 ms or less and under a fifth of legacy DCF's, while background saturators (AIFSN 7, CW 63+) keep 80 % or more of their throughput",
		Grid:   gridF13,
		Check: holds(func(c *claim) {
			legacy, edca := c.row("legacy DCF"), c.row("EDCA-style")
			legacyMean, edcaMean := c.num(legacy, 1), c.num(edca, 1)
			c.that(edcaMean < legacyMean/5, "EDCA-style: voice mean %.2f ms not under a fifth of legacy DCF's %.2f ms", edcaMean, legacyMean)
			c.that(edcaMean <= 5, "EDCA-style: voice mean %.2f ms above 5 ms", edcaMean)
			legacyBG, edcaBG := c.num(legacy, 4), c.num(edca, 4)
			c.that(edcaBG >= 0.8*legacyBG, "EDCA-style: background %.2f Mbit/s below 80 %% of legacy DCF's %.2f", edcaBG, legacyBG)
		}),
	})
}

// runF13 contrasts a voice-like CBR flow against saturating background
// traffic, with and without EDCA-style access differentiation.
func gridF13(quick bool) *Grid {
	t := stats.NewTable("F13: priority access (voice CBR 160B/20ms vs saturated background, 802.11b)",
		"scheme", "voice mean ms", "voice p95 ms", "voice loss %", "bg Mbit/s")
	t.Note = "voice: AIFSN 2 + CW[7,15]; background: AIFSN 7 + CW[63,1023]; all share one channel"
	const nBG = 8 // enough contention that legacy voice latency blows up
	dur := runDur(quick, 3*sim.Second, 8*sim.Second)

	run := func(prioritized bool) []string {
		net := core.NewNetwork(core.Config{Seed: 1600})
		sink := net.AddAdhoc("sink", geom.Pt(0, 0))
		pts := geom.Circle(nBG+1, 4, geom.Pt(0, 0))

		var voice *core.Node
		if prioritized {
			voice = net.AddAdhocOpts("voice", pts[0], core.NodeOpts{CWmin: 7, CWmax: 15, AIFSN: 2})
		} else {
			voice = net.AddAdhoc("voice", pts[0])
		}
		voiceFlow := net.CBR(voice, sink, 160, 20*sim.Millisecond)

		bgFlows := make([]uint32, nBG)
		for i := 0; i < nBG; i++ {
			var bg *core.Node
			name := fmt.Sprintf("bg%d", i)
			if prioritized {
				bg = net.AddAdhocOpts(name, pts[i+1], core.NodeOpts{CWmin: 63, CWmax: 1023, AIFSN: 7})
			} else {
				bg = net.AddAdhoc(name, pts[i+1])
			}
			bgFlows[i] = net.Saturate(bg, sink, 1000)
		}
		net.Run(dur)

		vs := net.FlowStats(voiceFlow)
		mean, p95, loss := 0.0, 0.0, 100.0
		if vs != nil {
			mean = vs.Latency.Mean() * 1000
			p95 = vs.LatencyH.Quantile(0.95) * 1000
			loss = 100 * vs.LossRatio()
		}
		scheme := "legacy DCF"
		if prioritized {
			scheme = "EDCA-style"
		}
		return []string{scheme, stats.F(mean, 2), stats.F(p95, 2),
			stats.F(loss, 1), stats.Mbps(sumThroughput(net, bgFlows))}
	}

	return &Grid{Table: t, N: 2, Point: single(func(i int) []string { return run(i == 1) })}
}
