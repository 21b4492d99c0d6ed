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
		Expect: "short preamble saves a fixed 96 µs per frame, so the relative gain is largest for small frames",
		Grid:   gridA1,
	})
	register(&Experiment{
		ID:     "A2",
		Title:  "Ablation: capture margin sweep on the hidden near/far topology",
		Expect: "small margins capture aggressively (near station feasts); very large margins behave like capture off",
		Grid:   gridA2,
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
