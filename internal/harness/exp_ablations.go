package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/units"
)

func init() {
	register(&Experiment{
		ID:     "A1",
		Title:  "Ablation: DSSS short vs long preamble across frame sizes",
		Expect: "short preamble never loses, gains 5 % or more on the smallest payload, and gains less on the largest: its 96 µs saving is fixed per frame",
		Grid:   gridA1,
		Check: holds(func(c *claim) {
			small, big := c.ends()
			c.that(c.num(small, 3) > c.num(big, 3), "gain does not shrink with size: %s %% at %s B, %s %% at %s B", c.str(small, 3), c.str(small, 0), c.str(big, 3), c.str(big, 0))
			c.that(c.num(small, 3) >= 5, "payload %s B: gain only %s %%", c.str(small, 0), c.str(small, 3))
			for _, r := range c.t.Rows {
				c.that(c.num(r, 3) >= 0, "%s: negative gain %s %%", c.name(r), c.str(r, 3))
			}
		}),
	})
	register(&Experiment{
		ID:     "A2",
		Title:  "Ablation: capture margin sweep on the hidden near/far topology",
		Expect: "the near station gets more at a 3 dB margin, which captures, than at 30 dB, above the 25 dB power gap, where capture is off",
		Grid:   gridA2,
		Check: holds(func(c *claim) {
			small, huge := c.num(c.row("3"), 1), c.num(c.row("30"), 1)
			c.that(small > huge, "near station: %.2f Mbit/s at a 3 dB margin does not beat %.2f at 30 dB", small, huge)
		}),
	})
}

// gridA1 compares long/short preamble goodput for several payload sizes.
func gridA1(quick bool) *Grid {
	t := stats.NewTable("A1: preamble ablation (802.11b, 11 Mbit/s, saturated)",
		"payload B", "long Mbit/s", "short Mbit/s", "gain %")
	t.Note = "the 96 µs saved per MPDU (and per ACK) amortizes poorly over long frames"
	sizes := pick(quick, []int{100, 1500}, []int{64, 100, 256, 512, 1024, 1500})
	dur := runDur(quick, 1*sim.Second, 3*sim.Second)
	return &Grid{Table: t, N: len(sizes), Point: single(func(si int) []string {
		size := sizes[si]
		var got [2]float64
		for i, short := range []bool{false, true} {
			net := core.NewNetwork(core.Config{
				Seed:          uint64(1400 + size),
				ShortPreamble: short,
				PathLoss:      spectrum.FreeSpace{Freq: 2412 * units.MHz},
			})
			a := net.AddAdhoc("a", geom.Pt(0, 0))
			b := net.AddAdhoc("b", geom.Pt(5, 0))
			flow := net.Saturate(a, b, size)
			net.Run(dur)
			got[i] = net.FlowThroughput(flow)
		}
		gain := 0.0
		if got[0] > 0 {
			gain = 100 * (got[1] - got[0]) / got[0]
		}
		return []string{fmt.Sprint(size), stats.Mbps(got[0]), stats.Mbps(got[1]), stats.F(gain, 1)}
	})}
}

// gridA2 sweeps the capture margin on the F9 hidden near/far topology.
func gridA2(quick bool) *Grid {
	t := stats.NewTable("A2: capture margin sweep (hidden senders, 25 dB power gap, 1000B)",
		"margin dB", "near Mbit/s", "far Mbit/s", "total Mbit/s")
	t.Note = "the senders' power gap at the sink is 25 dB: margins above it disable capture"
	margins := pick(quick, []float64{3, 30}, []float64{3, 6, 10, 20, 30})
	dur := runDur(quick, 2*sim.Second, 4*sim.Second)

	posSink, posNear, posFar := geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(40, 0)
	names := map[geom.Point]string{posSink: "sink", posNear: "near", posFar: "far"}
	pl := spectrum.MatrixLoss{
		Default: 70,
		Pairs: map[string]units.DB{
			spectrum.PairKey("near", "sink"): 60,
			spectrum.PairKey("sink", "near"): 60,
			spectrum.PairKey("far", "sink"):  85,
			spectrum.PairKey("sink", "far"):  85,
			spectrum.PairKey("near", "far"):  200,
			spectrum.PairKey("far", "near"):  200,
		},
		Resolver: func(p geom.Point) string { return names[p] },
	}
	return &Grid{Table: t, N: len(margins), Point: single(func(i int) []string {
		margin := margins[i]
		net := core.NewNetwork(core.Config{
			Seed: 1500, CaptureMarginDB: margin, PathLoss: pl,
		})
		sink := net.AddAdhoc("sink", posSink)
		near := net.AddAdhoc("near", posNear)
		far := net.AddAdhoc("far", posFar)
		fn := net.Saturate(near, sink, 1000)
		ff := net.Saturate(far, sink, 1000)
		net.Run(dur)
		nT, fT := net.FlowThroughput(fn), net.FlowThroughput(ff)
		return []string{stats.F(margin, 0), stats.Mbps(nT), stats.Mbps(fT), stats.Mbps(nT + fT)}
	})}
}
