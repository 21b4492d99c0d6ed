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
		ID:     "F3",
		Title:  "Hidden terminal: RTS/CTS on vs off (2 Mbit/s, 1500B: long collision window)",
		Expect: "basic access collapses under hidden-node collisions; RTS/CTS delivers more than 1.3× its aggregate",
		Grid:   gridF3,
		Check: holds(func(c *claim) {
			basic, rts := c.num(c.row("basic"), 1), c.num(c.row("rts/cts"), 1)
			c.that(rts > 1.3*basic, "rts/cts %.2f Mbit/s is not 1.3× basic's %.2f", rts, basic)
		}),
	})
	register(&Experiment{
		ID:     "F9",
		Title:  "Capture effect: near/far contention with capture on vs off",
		Expect: "capture does not lower total throughput but skews it toward the near station: the Jain index does not rise",
		Grid:   gridF9,
		Check: holds(func(c *claim) {
			off, on := c.row("false"), c.row("true")
			c.that(c.num(on, 3) >= c.num(off, 3), "capture lowered total throughput: %s -> %s Mbit/s", c.str(off, 3), c.str(on, 3))
			c.that(c.num(on, 4) <= c.num(off, 4), "capture raised the Jain index: %s -> %s", c.str(off, 4), c.str(on, 4))
		}),
	})
}

// hiddenPathLoss builds a matrix channel where the two senders cannot hear
// each other at all but both reach the receiver cleanly.
func hiddenPathLoss() spectrum.PathLoss {
	posA, posB, posC := geom.Pt(-25, 0), geom.Pt(0, 0), geom.Pt(25, 0)
	names := map[geom.Point]string{posA: "a", posB: "b", posC: "c"}
	return spectrum.MatrixLoss{
		Default: 70, // comfortable link everywhere else
		Pairs: map[string]units.DB{
			spectrum.PairKey("a", "c"): 200,
			spectrum.PairKey("c", "a"): 200,
		},
		Resolver: func(p geom.Point) string { return names[p] },
	}
}

// runF3 measures two mutually hidden saturated senders with and without
// RTS/CTS protection. The data rate is pinned to 2 Mbit/s so a collision
// wastes a ~6.3 ms frame under basic access but only a 272 µs RTS under
// protection — the regime where the textbook result holds.
func gridF3(quick bool) *Grid {
	t := stats.NewTable("F3: hidden terminal (2 hidden senders → 1 receiver, 1500B @ 2 Mbit/s)",
		"access", "agg Mbit/s", "flowA Mbit/s", "flowC Mbit/s", "retries", "drops")
	t.Note = "senders are 200 dB apart: carrier sense is blind between them"
	dur := runDur(quick, 3*sim.Second, 8*sim.Second)
	return &Grid{Table: t, N: 2, Point: single(func(i int) []string {
		rts := i == 1
		cfg := core.Config{Seed: 300, PathLoss: hiddenPathLoss(), RateAdapt: "fixed:1"}
		name := "basic"
		if rts {
			cfg.RTSThreshold = 1
			name = "rts/cts"
		}
		net := core.NewNetwork(cfg)
		b := net.AddAdhoc("b", geom.Pt(0, 0))
		a := net.AddAdhoc("a", geom.Pt(-25, 0))
		c := net.AddAdhoc("c", geom.Pt(25, 0))
		fa := net.Saturate(a, b, 1500)
		fc := net.Saturate(c, b, 1500)
		net.Run(dur)

		retries := a.MAC.Stats().Retries + c.MAC.Stats().Retries
		drops := a.MAC.Stats().MSDUDropped + c.MAC.Stats().MSDUDropped
		return []string{name,
			stats.Mbps(net.FlowThroughput(fa) + net.FlowThroughput(fc)),
			stats.Mbps(net.FlowThroughput(fa)), stats.Mbps(net.FlowThroughput(fc)),
			fmt.Sprint(retries), fmt.Sprint(drops)}
	})}
}

// runF9 contrasts a strong and a weak saturated sender that are hidden from
// each other — so their frames overlap constantly at the receiver — with
// capture on and off. Carrier-sensing senders would almost never collide,
// which is why the experiment needs the hidden topology to expose capture.
func gridF9(quick bool) *Grid {
	t := stats.NewTable("F9: capture effect (hidden senders at 5 m and 40 m, 1000B)",
		"capture", "near Mbit/s", "far Mbit/s", "total Mbit/s", "jain")
	t.Note = "25 dB power gap: with capture the receiver re-locks onto the near frame mid-collision"
	dur := runDur(quick, 2*sim.Second, 5*sim.Second)

	// near/far both reach the sink but not each other (hidden pair).
	posSink, posNear, posFar := geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(40, 0)
	names := map[geom.Point]string{posSink: "sink", posNear: "near", posFar: "far"}
	pl := spectrum.MatrixLoss{
		Default: 70, // placeholder; overridden per pair below
		Pairs: map[string]units.DB{
			spectrum.PairKey("near", "sink"): 60, // strong: RSSI -44 dBm
			spectrum.PairKey("sink", "near"): 60,
			spectrum.PairKey("far", "sink"):  85, // weak: RSSI -69 dBm
			spectrum.PairKey("sink", "far"):  85,
			spectrum.PairKey("near", "far"):  200, // hidden pair
			spectrum.PairKey("far", "near"):  200,
		},
		Resolver: func(p geom.Point) string { return names[p] },
	}

	return &Grid{Table: t, N: 2, Point: single(func(i int) []string {
		margin := [...]float64{0, 10}[i] // capture off, then on at 10 dB
		capture := margin > 0
		net := core.NewNetwork(core.Config{Seed: 900, CaptureMarginDB: margin, PathLoss: pl})
		sink := net.AddAdhoc("sink", posSink)
		near := net.AddAdhoc("near", posNear)
		far := net.AddAdhoc("far", posFar)
		fn := net.Saturate(near, sink, 1000)
		ff := net.Saturate(far, sink, 1000)
		net.Run(dur)

		nT, fT := net.FlowThroughput(fn), net.FlowThroughput(ff)
		return []string{fmt.Sprint(capture), stats.Mbps(nT), stats.Mbps(fT),
			stats.Mbps(nT + fT), stats.F(stats.JainIndex([]float64{nT, fT}), 3)}
	})}
}
