package core

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
)

// The metamorphic wall for range pruning: radios that no original node can
// hear, added after every original node so that no original id moves, must
// change nothing an original node or flow sees. It walks both pruning paths
// (the silent radios are pruned from rows and from mobile transmitters'
// walks on a log-distance channel) and the unpruned one (shadowing and
// fading keep them in every row), where it also holds each link's fading
// draws independent of the radio count.

// silentScenario builds one network and returns its flows.
type silentScenario func(net *Network) []uint32

// essScenario is a roaming-wave-shaped ESS: stations walking a corridor of
// APs at 12 m/s, with uplink CBR to the first AP, so post-roam traffic
// crosses the DS.
func essScenario(net *Network) []uint32 {
	positions := make([]geom.Point, 4)
	for i := range positions {
		positions[i] = geom.Pt(float64(i)*80, 0)
	}
	_, aps := net.AddESS("city", positions, net80211.APConfig{})
	var flows []uint32
	for j := 0; j < 8; j++ {
		sta := net.AddMobileStation(fmt.Sprintf("sta%d", j), geom.Linear{
			Start:    geom.Pt(5-8*float64(j), 2-float64(j%3)*2),
			Velocity: geom.Vector{X: 12},
		}, net80211.STAConfig{SSID: "city", RoamThreshold: -65, RoamHysteresis: 6})
		flows = append(flows, net.CBR(sta, aps[0], 300, 100*sim.Millisecond))
	}
	return flows
}

// ringScenario is a fading-rateadapt-shaped ring: saturated pairs on
// 802.11a under the Config's shadowing and Rayleigh fading.
func ringScenario(net *Network) []uint32 {
	var flows []uint32
	for i, p := range geom.Circle(8, 25, geom.Pt(0, 0)) {
		a := net.AddAdhoc(fmt.Sprintf("a%d", i), p)
		b := net.AddAdhoc(fmt.Sprintf("b%d", i), p.Add(geom.Vector{X: 15}))
		flows = append(flows, net.Saturate(a, b, 1200))
	}
	return flows
}

// silentRun builds the scenario, adds silent idle radios 10 km away — every
// other one walking — runs it, and returns what its original nodes and
// flows saw.
func silentRun(cfg Config, build silentScenario, silent int, d sim.Duration) []string {
	net := NewNetwork(cfg)
	flows := build(net)
	orig := len(net.Nodes())
	for i := 0; i < silent; i++ {
		p := geom.Pt(10_000+5*float64(i), 10_000)
		n := net.AddAdhoc(fmt.Sprintf("silent%d", i), p)
		if i%2 == 1 {
			n.Radio.SetMobility(geom.Linear{Start: p, Velocity: geom.Vector{Y: 3}})
		}
	}
	net.Run(d)
	var seen []string
	for _, n := range net.Nodes()[:orig] {
		s := fmt.Sprintf("%s: mac %+v radio %+v", n.Name, n.MAC.Stats(), n.Radio.Stats)
		if n.STA != nil {
			s += fmt.Sprintf(" sta %+v", n.STA.Stats)
		}
		if n.AP != nil {
			s += fmt.Sprintf(" ap %+v", n.AP.Stats)
		}
		seen = append(seen, s)
	}
	for _, id := range flows {
		seen = append(seen, fmt.Sprintf("flow %d: %+v", id, *net.FlowStats(id)))
	}
	return seen
}

func TestSilentRadiosOutOfRange(t *testing.T) {
	for _, c := range []struct {
		name  string
		cfg   Config
		build silentScenario
		run   sim.Duration
	}{
		{"roaming ESS", Config{Seed: 3}, essScenario, 8 * sim.Second},
		{"fading ring", Config{Seed: 3, Mode: "802.11a", RateAdapt: "minstrel",
			ShadowSigmaDB: 4, Fading: "rayleigh"}, ringScenario, 2 * sim.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			want := silentRun(c.cfg, c.build, 0, c.run)
			got := silentRun(c.cfg, c.build, 6, c.run)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("six silent radios 10 km away changed what an original sees:\nwithout: %s\nwith:    %s", want[i], got[i])
				}
			}
		})
	}
}
