package harness

import (
	"bytes"
	"fmt"
	"math"

	"repro/internal/analytical"
	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/wep"
)

func init() {
	register(&Experiment{
		ID:     "F11",
		Title:  "MAC comparison: ALOHA, slotted ALOHA, DCF, TDMA vs offered load",
		Expect: "at G = 1 TDMA beats DCF, DCF beats slotted ALOHA and slotted beats pure ALOHA; the pure-ALOHA theory column is G·e^(−2G) within 0.01",
		Grid:   gridF11,
		Check: holds(func(c *claim) {
			r := c.row("1.00")
			aloha, slotted, dcf, tdma := c.num(r, 1), c.num(r, 2), c.num(r, 3), c.num(r, 4)
			c.that(slotted > aloha, "G 1.00: slotted %.3f does not beat pure ALOHA %.3f", slotted, aloha)
			c.that(dcf > slotted, "G 1.00: DCF %.3f does not beat slotted ALOHA %.3f", dcf, slotted)
			c.that(tdma > dcf, "G 1.00: TDMA %.3f does not beat DCF %.3f", tdma, dcf)
			for _, r := range c.t.Rows {
				g, got := c.num(r, 0), c.num(r, 5)
				c.that(math.Abs(got-g*math.Exp(-2*g)) <= 0.01, "%s: pure ALOHA theory %.3f, want %.3f", c.name(r), got, g*math.Exp(-2*g))
			}
		}),
	})
	register(&Experiment{
		ID:     "S1",
		Title:  "Link privacy: WEP bit-flip forgery vs CCMP integrity",
		Expect: "the CRC-linearity forgery passes WEP's ICV; CCMP rejects forgery and replay",
		Grid:   gridS1,
		Check: holds(func(c *claim) {
			for _, a := range [][3]string{
				{"WEP", "CRC bit-flip forgery", "true"},
				{"WEP", "random corruption", "false"},
				{"CCMP", "CTR bit-flip forgery", "false"},
				{"CCMP", "replay (stale PN)", "false"},
			} {
				got := c.str(c.row(a[0], a[1]), 2)
				c.that(got == a[2], "%s %s: accepted? %q, want %s", a[0], a[1], got, a[2])
			}
		}),
	})
}

// baselineWorld builds kernel+medium+n sender radios around a sink radio on
// a clean free-space channel at 11 Mbit/s (collisions destructive).
type baselineWorld struct {
	k       *sim.Kernel
	m       *medium.Medium
	mode    *phy.Mode
	sink    *medium.Radio
	senders []*medium.Radio
	src     *rng.Source
}

func newBaselineWorld(seed uint64, n int) *baselineWorld {
	k := sim.NewKernel()
	src := rng.New(seed)
	model := spectrum.NewModel(spectrum.FreeSpace{Freq: 2412 * units.MHz}, nil, nil)
	m := medium.New(k, model, src)
	mode := phy.Mode80211b()
	w := &baselineWorld{k: k, m: m, mode: mode, src: src}
	w.sink = m.AddRadio(medium.RadioConfig{
		Name: "sink", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 16,
	})
	for i := 0; i < n; i++ {
		w.senders = append(w.senders, m.AddRadio(medium.RadioConfig{
			Name: fmt.Sprintf("s%d", i), Mode: mode,
			Mobility: geom.Static{P: geom.Circle(n, 5, geom.Pt(0, 0))[i]},
			TxPower:  16,
		}))
	}
	return w
}

// poissonDrive schedules Poisson arrivals calling enqueue on each sender.
func (w *baselineWorld) poissonDrive(perSenderPPS float64, enqueue []func()) {
	for i := range w.senders {
		gen := w.src.Split(fmt.Sprintf("arr%d", i))
		enq := enqueue[i]
		var arrive func()
		arrive = func() {
			enq()
			dt := sim.Duration(gen.ExpFloat64() / perSenderPPS * float64(sim.Second))
			w.k.Schedule(dt, "arrival", arrive)
		}
		dt := sim.Duration(gen.ExpFloat64() / perSenderPPS * float64(sim.Second))
		w.k.Schedule(dt, "arrival", arrive)
	}
}

// runF11 sweeps offered load G for the four MACs and reports normalized
// goodput S (frames per frame-time).
func gridF11(quick bool) *Grid {
	t := stats.NewTable("F11: normalized goodput S vs offered load G (500B @ 11 Mbit/s)",
		"G", "aloha", "slotted", "dcf", "tdma",
		"aloha theory", "slotted theory")
	t.Note = "S and G in frames per 11 Mbit/s frame-time; DCF pays preamble+IFS so its plateau sits below TDMA"
	gs := pick(quick, []float64{0.25, 0.5, 1.0}, []float64{0.1, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5})
	const n = 10
	const payload = 500
	wire := payload + frame.DataHdrLen + frame.FCSLen
	run := runDur(quick, 10*sim.Second, 25*sim.Second)

	return &Grid{Table: t, N: len(gs), Point: single(func(gi int) []string {
		g := gs[gi]
		row := []string{stats.F(g, 2)}
		mode := phy.Mode80211b()
		frameTime := mode.Airtime(3, wire)
		pps := g / n / frameTime.Seconds()
		sinkAddr := frame.MACAddr{2, 0, 0, 0, 0, 0xee}

		// Pure and slotted ALOHA.
		for _, slotted := range []bool{false, true} {
			w := newBaselineWorld(uint64(1100+int(g*100)), n)
			received := 0
			passive := mac.NewAloha(w.k, w.sink, 3)
			passive.SetReceiver(func(*frame.Frame, medium.RxInfo) { received++ })
			var enq []func()
			for i, r := range w.senders {
				var a *mac.Aloha
				if slotted {
					a = mac.NewSlottedAloha(w.k, r, 3, frameTime)
				} else {
					a = mac.NewAloha(w.k, r, 3)
				}
				addr := frame.MACAddr{2, 0, 0, 0, 1, byte(i)}
				enq = append(enq, func() {
					a.Enqueue(frame.NewData(sinkAddr, addr, addr, false, false, make([]byte, payload)))
				})
			}
			w.poissonDrive(pps, enq)
			w.k.RunUntil(sim.Time(run))
			row = append(row, stats.F(float64(received)*frameTime.Seconds()/run.Seconds(), 3))
		}

		// DCF through the core API with Poisson flows.
		{
			net := core.NewNetwork(core.Config{
				Seed: uint64(1150 + int(g*100)), RateAdapt: "fixed:3",
				PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz},
			})
			sink := net.AddAdhoc("sink", geom.Pt(0, 0))
			pts := geom.Circle(n, 5, geom.Pt(0, 0))
			var flows []uint32
			for i := 0; i < n; i++ {
				s := net.AddAdhoc(fmt.Sprintf("sta%d", i), pts[i])
				flows = append(flows, net.Poisson(s, sink, payload, pps))
			}
			net.Run(run)
			var frames uint64
			for _, id := range flows {
				if fs := net.FlowStats(id); fs != nil {
					frames += fs.Received
				}
			}
			row = append(row, stats.F(float64(frames)*frameTime.Seconds()/run.Seconds(), 3))
		}

		// Ideal TDMA.
		{
			w := newBaselineWorld(uint64(1180+int(g*100)), n)
			received := 0
			slotDur := frameTime + 100*sim.Microsecond
			passive := mac.NewTDMA(w.k, w.sink, 3, 0, 1, slotDur)
			passive.SetReceiver(func(*frame.Frame, medium.RxInfo) { received++ })
			var enq []func()
			for i, r := range w.senders {
				tm := mac.NewTDMA(w.k, r, 3, i, n, slotDur)
				addr := frame.MACAddr{2, 0, 0, 0, 2, byte(i)}
				enq = append(enq, func() {
					tm.Enqueue(frame.NewData(sinkAddr, addr, addr, false, false, make([]byte, payload)))
				})
			}
			w.poissonDrive(pps, enq)
			w.k.RunUntil(sim.Time(run))
			row = append(row, stats.F(float64(received)*frameTime.Seconds()/run.Seconds(), 3))
		}

		row = append(row,
			stats.F(analytical.PureAlohaS(g), 3),
			stats.F(analytical.SlottedAlohaS(g), 3))
		return row
	})}
}

// gridS1 demonstrates the WEP integrity failure and CCMP's immunity. The
// whole demonstration is one deterministic scenario point that yields all
// four table rows.
func gridS1(bool) *Grid {
	t := stats.NewTable("S1: link-privacy integrity (bit-flip forgery and replay)",
		"scheme", "attack", "accepted?", "detail")
	t.Note = "reproduces the security ranking in the survey: WEP integrity is forgeable, CCMP is not"
	return &Grid{Table: t, N: 1, Point: func(int) [][]string {
		var rows [][]string

		key := wep.Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
		plain := []byte("PAY   10 DOLLARS")
		target := []byte("PAY 9910 DOLLARS")
		sealed, err := wep.Seal(key, wep.IV{7, 7, 7}, 0, plain)
		if err != nil {
			panic(err)
		}
		mask := make([]byte, len(plain))
		for i := range plain {
			mask[i] = plain[i] ^ target[i]
		}
		forged, err := wep.BitFlip(sealed, mask)
		if err != nil {
			panic(err)
		}
		got, err := wep.Open(key, forged)
		wepForged := err == nil && bytes.Equal(got, target)
		rows = append(rows, []string{"WEP", "CRC bit-flip forgery", fmt.Sprint(wepForged),
			"attacker rewrote the plaintext without the key"})

		// Random corruption is still caught by the ICV.
		corrupt := append([]byte(nil), sealed...)
		corrupt[wep.IVHeaderLen] ^= 0xff
		_, err = wep.Open(key, corrupt)
		rows = append(rows, []string{"WEP", "random corruption", fmt.Sprint(err == nil),
			"ICV catches non-crafted damage"})

		tk := []byte("0123456789abcdef")
		ta := [6]byte{2, 0, 0, 0, 0, 1}
		ccmp, err := wep.SealCCMP(tk, ta, 1, nil, plain)
		if err != nil {
			panic(err)
		}
		flipped := append([]byte(nil), ccmp...)
		flipped[wep.CCMPHeaderLen+4] ^= mask[4]
		_, _, err = wep.OpenCCMP(tk, ta, nil, flipped, 0)
		rows = append(rows, []string{"CCMP", "CTR bit-flip forgery", fmt.Sprint(err == nil),
			"keyed MIC rejects the flip"})

		_, _, err = wep.OpenCCMP(tk, ta, nil, ccmp, 1)
		rows = append(rows, []string{"CCMP", "replay (stale PN)", fmt.Sprint(err == nil),
			"packet-number window rejects replays"})
		return rows
	}}
}
