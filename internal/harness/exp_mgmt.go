package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/units"
)

func init() {
	register(&Experiment{
		ID:     "F10",
		Title:  "ESS roaming: handoff behaviour vs hysteresis",
		Expect: "at every hysteresis the walking station roams to the far AP, and delivery stays at 50 % or more through the handoff",
		Grid:   gridF10,
		Check: holds(func(c *claim) {
			for _, r := range c.t.Rows {
				c.that(c.str(r, 4) == "ap2", "%s: station ended on %q, not ap2", c.name(r), c.str(r, 4))
				c.that(c.num(r, 2) >= 50, "%s: delivery %s %% below 50 %%", c.name(r), c.str(r, 2))
			}
		}),
	})
	register(&Experiment{
		ID:     "F12",
		Title:  "Power save: latency and sleep fraction vs beacon interval",
		Expect: "at a 100 TU beacon interval the PS station sleeps 70 % or more and uses under half the awake energy; its mean delay is at least 5× the awake station's and within 25–90 ms, about half the interval",
		Grid:   gridF12,
		Check: holds(func(c *claim) {
			awake, ps := c.row("awake", "100"), c.row("power-save", "100")
			awakeDelay, psDelay := c.num(awake, 2), c.num(ps, 2)
			c.that(psDelay >= 5*awakeDelay, "power-save 100 TU: mean delay %.2f ms not 5× awake %.2f ms", psDelay, awakeDelay)
			c.that(psDelay >= 25 && psDelay <= 90, "power-save 100 TU: mean delay %.2f ms outside 25–90 ms", psDelay)
			c.that(c.num(awake, 4) == 0, "awake 100 TU: slept %s %%", c.str(awake, 4))
			c.that(c.num(ps, 4) >= 70, "power-save 100 TU: slept only %s %%", c.str(ps, 4))
			awakeEnergy, psEnergy := c.num(awake, 5), c.num(ps, 5)
			c.that(psEnergy < awakeEnergy/2, "power-save 100 TU: energy %.2f J not under half awake %.2f J", psEnergy, awakeEnergy)
		}),
	})
}

// runF10 walks a station between two APs on a shared ESS and varies the
// roam hysteresis.
func gridF10(quick bool) *Grid {
	t := stats.NewTable("F10: roaming across a 2-AP ESS (uplink CBR 50/s, walk 10 m/s)",
		"hysteresis dB", "roams", "delivery %", "max outage ms", "final AP")
	t.Note = "outage spans the rescan+reauth window; delivery counts CBR packets that crossed"
	hys := pick(quick, []float64{6}, []float64{3, 6, 12})
	return &Grid{Table: t, N: len(hys), Point: single(func(i int) []string {
		h := hys[i]
		net := core.NewNetwork(core.Config{Seed: uint64(1000 + int(h))})
		ap1 := net.AddAP("ap1", geom.Pt(0, 0), net80211.APConfig{SSID: "ess"})
		ap2 := net.AddAP("ap2", geom.Pt(120, 0), net80211.APConfig{SSID: "ess"})
		net.ConnectDS(ap1)
		net.ConnectDS(ap2)
		mob := geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 10}}
		sta := net.AddMobileStation("sta", mob, net80211.STAConfig{
			SSID: "ess", RoamThreshold: -65, RoamHysteresis: units.DB(h),
		})
		// Uplink CBR to ap1's address: pre-roam it is local, post-roam it
		// crosses the DS.
		flow := net.CBR(sta, ap1, 300, 20*sim.Millisecond)
		net.Run(11 * sim.Second) // the walk covers 5 → 115 m

		fs := net.FlowStats(flow)
		delivery, outage := 0.0, 0.0
		if fs != nil {
			delivery = 100 * (1 - fs.LossRatio())
			outage = fs.MaxGap.Seconds() * 1000
		}
		final := "ap1"
		if sta.STA.BSSID() == ap2.AP.BSSID() {
			final = "ap2"
		}
		return []string{stats.F(h, 0), fmt.Sprint(sta.STA.Stats.Roams),
			stats.F(delivery, 1), stats.F(outage, 0), final}
	})}
}

// runF12 measures power-save latency/sleep trade-offs across beacon
// intervals.
func gridF12(quick bool) *Grid {
	t := stats.NewTable("F12: power save (downlink Poisson 20/s, 200B)",
		"mode", "beacon TU", "mean delay ms", "p95 delay ms", "sleep %", "energy J", "delivered")
	t.Note = "PS latency clusters around the next-beacon wait; energy uses the 1.4/0.9/0.74/0.047 W card model"
	type variant struct {
		ps     bool
		beacon int
	}
	variants := pick(quick,
		[]variant{{false, 100}, {true, 100}},
		[]variant{{false, 100}, {true, 50}, {true, 100}, {true, 200}})
	dur := runDur(quick, 4*sim.Second, 10*sim.Second)
	return &Grid{Table: t, N: len(variants), Point: single(func(i int) []string {
		v := variants[i]
		net := core.NewNetwork(core.Config{Seed: uint64(1200 + v.beacon)})
		ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{
			SSID:           "ps",
			BeaconInterval: sim.Duration(v.beacon) * net80211.TU,
			PSBufferCap:    128,
		})
		sta := net.AddStation("sta", geom.Pt(10, 0), net80211.STAConfig{
			SSID: "ps", PowerSave: v.ps,
		})
		// Give association a moment, then start the downlink flow.
		net.Run(1 * sim.Second)
		flow := net.Poisson(ap, sta, 200, 20)
		sleepBefore := sta.Radio.Stats.SleepTime
		net.Run(dur)

		fs := net.FlowStats(flow)
		mean, p95, delivered := 0.0, 0.0, uint64(0)
		if fs != nil {
			mean = fs.Latency.Mean() * 1000
			p95 = fs.LatencyH.Quantile(0.95) * 1000
			delivered = fs.Received
		}
		slept := sta.Radio.Stats.SleepTime - sleepBefore
		energy := medium.DefaultPowerModel().Energy(sta.Radio.Stats, net.Elapsed())
		mode := "awake"
		if v.ps {
			mode = "power-save"
		}
		return []string{mode, fmt.Sprint(v.beacon), stats.F(mean, 2), stats.F(p95, 2),
			stats.F(100*slept.Seconds()/dur.Seconds(), 1), stats.F(energy, 2),
			fmt.Sprint(delivered)}
	})}
}
