// Cityscale: the E-family in miniature. A 600-radio district runs on the
// medium's range-pruned fan-out rows (a transmitter reaches only the radios
// within its detection range, so event cost stays near-linear in radio
// count), then a station cohort rides a multi-AP ESS corridor built with
// AddESS and hands off twice without losing its uplink. These are experiments E1 and E2 as
// a narrative; run the full grids with `go run ./cmd/experiments -experiment E1`.
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
)

func main() {
	// --- E1 in miniature: a dense district ------------------------------
	const n = 600
	net := core.NewNetwork(core.Config{Seed: 11, TxPower: 2}) // low power: short detection ranges
	pts := geom.Grid(n, 15, geom.Pt(0, 0))
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = net.AddAdhoc(fmt.Sprintf("n%d", i), pts[i])
	}
	var flows []uint32
	for i := 0; i+1 < n; i += 2 {
		flows = append(flows, net.Poisson(nodes[i], nodes[i+1], 200, 4))
	}
	net.Run(1 * sim.Second)

	var received uint64
	for _, f := range flows {
		if fs := net.FlowStats(f); fs != nil {
			received += fs.Received
		}
	}
	fmt.Printf("district: %d radios, %d kernel events/vs, %d transmissions, %d delivered\n",
		n, net.Kernel().Processed(), net.Medium().Transmissions, received)

	// --- E2 in miniature: an ESS corridor -------------------------------
	city := core.NewNetwork(core.Config{Seed: 12})
	ess, aps := city.AddESS("corridor",
		[]geom.Point{geom.Pt(0, 0), geom.Pt(80, 0), geom.Pt(160, 0)},
		net80211.APConfig{})
	sta := city.AddMobileStation("commuter",
		geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 12}},
		net80211.STAConfig{SSID: "corridor", RoamThreshold: -65, RoamHysteresis: 6})
	flow := city.CBR(sta, aps[0], 300, 100*sim.Millisecond)
	city.Run(15 * sim.Second)

	fs := city.FlowStats(flow)
	fmt.Printf("corridor: %d roams, %d stale associations dropped by DS handoff\n",
		sta.STA.Stats.Roams, ess.Handoffs())
	serving := ess.ServingAP(sta.Address())
	for _, ap := range aps {
		if ap.AP == serving {
			fmt.Printf("commuter ends on %s", ap.Name)
			if fs != nil {
				fmt.Printf(" with %.1f%% uplink delivery", 100*(1-fs.LossRatio()))
			}
			fmt.Println()
		}
	}
}
