package harness

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Golden-trace determinism tests: two fixed-seed multi-station scenarios
// whose full stats rows are pinned byte-for-byte in testdata/. Any decision
// drift — a reordered RNG draw, a rate-control refactor that changes one
// decision, a segment-timeline change that perturbs one SINR — shifts
// thousands of downstream events and shows up here immediately.
//
// Floats are rendered as exact IEEE-754 bit patterns, so "almost equal" can
// never slip through. Regenerate after an intentional behaviour change with
//
//	REGEN_GOLDEN=1 go test ./internal/harness -run TestGoldenTrace
//
// and justify the diff in the PR.

// goldenAdhoc is a 6-station ad-hoc star around a sink: every station runs a
// different rate controller (ARF, AARF, SampleRate, Minstrel, fixed, the
// network default) over a Rayleigh-fading channel, so every controller's
// full decision sequence is under test.
func goldenAdhoc() []string {
	net := core.NewNetwork(core.Config{
		Seed:      42,
		Mode:      "802.11g",
		Fading:    "rayleigh",
		RateAdapt: "minstrel",
		PathLoss:  spectrum.FreeSpace{Freq: 2412 * units.MHz},
	})
	sink := net.AddAdhoc("sink", geom.Pt(0, 0))
	specs := []string{"arf", "aarf", "samplerate", "minstrel", "fixed:2", ""}
	flows := make([]uint32, len(specs))
	for i, spec := range specs {
		ang := 2 * math.Pi * float64(i) / float64(len(specs))
		r := 25 + 15*float64(i)
		s := net.AddAdhocOpts(fmt.Sprintf("sta%d", i), geom.Pt(r*math.Cos(ang), r*math.Sin(ang)), core.NodeOpts{RateAdapt: spec})
		flows[i] = net.Saturate(s, sink, 1000)
	}
	net.Run(2 * sim.Second)

	var rows []string
	rows = append(rows, fmt.Sprintf("medium tx=%d", net.Medium().Transmissions))
	for i, f := range flows {
		rows = append(rows, fmt.Sprintf("flow%d tput=%016x", i, math.Float64bits(net.FlowThroughput(f))))
	}
	for _, n := range net.Nodes() {
		ms := n.MAC.Stats()
		rs := n.Radio.Stats
		rows = append(rows, fmt.Sprintf(
			"%s datatx=%d retries=%d drop=%d deliver=%d backoff=%d rxok=%d rxerr=%d overlap=%d navsets=%d",
			n.Name, ms.DataTx, ms.Retries, ms.MSDUDropped, ms.MSDUDelivered,
			ms.BackoffSlots, rs.RxFrames, rs.RxErrors, rs.RxOverlaps, ms.NAVSets))
	}
	return rows
}

// goldenInfra is an infrastructure BSS: one AP, four stations (two of them
// power-saving) joining over shadowed 802.11b with SampleRate adaptation and
// capture enabled, bidirectional CBR traffic. It pins the management plane
// (scan/auth/assoc), the PS-Poll cycle and the capture/SINR paths.
func goldenInfra() []string {
	net := core.NewNetwork(core.Config{
		Seed:            9,
		Mode:            "802.11b",
		RateAdapt:       "samplerate",
		ShadowSigmaDB:   3,
		ShortPreamble:   true,
		CaptureMarginDB: 10,
		PathLoss:        spectrum.FreeSpace{Freq: 2412 * units.MHz},
	})
	ap := net.AddAP("ap0", geom.Pt(0, 0), net80211.APConfig{SSID: "lab"})
	dists := []float64{12, 30, 55, 80}
	stas := make([]*core.Node, len(dists))
	var up, down []uint32
	for i, d := range dists {
		stas[i] = net.AddStation(fmt.Sprintf("sta%d", i), geom.Pt(d, float64(i)),
			net80211.STAConfig{SSID: "lab", PowerSave: i%2 == 1})
		up = append(up, net.CBR(stas[i], ap, 600, 25*sim.Millisecond))
		down = append(down, net.CBR(ap, stas[i], 400, 40*sim.Millisecond))
	}
	net.Run(3 * sim.Second)

	var rows []string
	rows = append(rows, fmt.Sprintf("medium tx=%d", net.Medium().Transmissions))
	as := ap.AP.Stats
	rows = append(rows, fmt.Sprintf("ap beacons=%d auth=%d assoc=%d psbuf=%d psdel=%d relayed=%d",
		as.BeaconsSent, as.AuthOK, as.Assocs, as.PSBuffered, as.PSDelivered, as.Relayed))
	for i := range dists {
		st := stas[i].STA.Stats
		rows = append(rows, fmt.Sprintf("sta%d scans=%d beacons=%d assoc=%d pspolls=%d rx=%d tx=%d",
			i, st.Scans, st.BeaconsSeen, st.Associations, st.PSPollsSent, st.RxPayloads, st.TxPayloads))
	}
	for i := range dists {
		rows = append(rows, fmt.Sprintf("flow up%d tput=%016x", i, math.Float64bits(net.FlowThroughput(up[i]))))
		rows = append(rows, fmt.Sprintf("flow dn%d tput=%016x", i, math.Float64bits(net.FlowThroughput(down[i]))))
	}
	for _, n := range net.Nodes() {
		ms := n.MAC.Stats()
		rs := n.Radio.Stats
		rows = append(rows, fmt.Sprintf(
			"%s datatx=%d retries=%d drop=%d deliver=%d backoff=%d rxok=%d rxerr=%d overlap=%d sleep=%d",
			n.Name, ms.DataTx, ms.Retries, ms.MSDUDropped, ms.MSDUDelivered,
			ms.BackoffSlots, rs.RxFrames, rs.RxErrors, rs.RxOverlaps, int64(rs.SleepTime)))
	}
	return rows
}

// goldenE1 pins a small fixed instance of the E1 density scenario: 24
// adhoc radios on the 15 m grid with Poisson pair traffic, running through
// the medium's range-pruned fan-out path. Kernel event count, per-flow
// goodput bits and per-node MAC/radio counters all pin the candidate
// walk's sets and ordering.
func goldenE1() []string {
	p := e1Scenario(sim.DeriveSeed(0xE1, 24), 24, 1*sim.Second)
	rows := []string{
		fmt.Sprintf("medium tx=%d events=%d sent=%d received=%d",
			p.net.Medium().Transmissions, p.events, p.sent, p.received),
	}
	for i, f := range p.flows {
		rows = append(rows, fmt.Sprintf("flow%d tput=%016x", i, math.Float64bits(p.net.FlowThroughput(f))))
	}
	for _, n := range p.net.Nodes() {
		ms := n.MAC.Stats()
		rs := n.Radio.Stats
		rows = append(rows, fmt.Sprintf(
			"%s datatx=%d retries=%d deliver=%d backoff=%d rxok=%d rxerr=%d",
			n.Name, ms.DataTx, ms.Retries, ms.MSDUDelivered, ms.BackoffSlots,
			rs.RxFrames, rs.RxErrors))
	}
	return rows
}

// goldenE2 pins the roaming wave at its smallest shape: two stations
// walking a 3-AP ESS corridor. Roam counts, DS handoff drops, the per-AP
// association spread and every flow's goodput pin the ESS announcement
// path end to end.
func goldenE2() []string {
	r := e2Scenario(sim.DeriveSeed(0xE2, 0x30002), 3, 2)
	rows := []string{
		fmt.Sprintf("medium tx=%d handoffs=%d", r.net.Medium().Transmissions, r.ess.Handoffs()),
	}
	i := 0
	for _, n := range r.net.Nodes() {
		ap := n.AP
		if ap == nil {
			continue
		}
		assoc := 0
		for _, sta := range r.stas {
			if ap.Associated(sta.Address()) {
				assoc++
			}
		}
		rows = append(rows, fmt.Sprintf("ap%d assoc=%d handoffs=%d beacons=%d",
			i, assoc, ap.Stats.Handoffs, ap.Stats.BeaconsSent))
		i++
	}
	for j, sta := range r.stas {
		st := sta.STA.Stats
		rows = append(rows, fmt.Sprintf("sta%d roams=%d assoc=%d scans=%d tx=%d rx=%d",
			j, st.Roams, st.Associations, st.Scans, st.TxPayloads, st.RxPayloads))
	}
	for i, f := range r.flows {
		rows = append(rows, fmt.Sprintf("flow%d tput=%016x", i, math.Float64bits(r.net.FlowThroughput(f))))
	}
	return rows
}

// goldenE3 pins the flash crowd at its smallest shape: six stations whose
// Poisson flows activate at sorted-uniform arrival times. Latency moments
// are pinned as float bit patterns, so the whole contention timeline is
// under test.
func goldenE3() []string {
	r := e3Scenario(sim.DeriveSeed(0xE3, 6), 6, 1*sim.Second, 1*sim.Second)
	rows := []string{
		fmt.Sprintf("medium tx=%d", r.net.Medium().Transmissions),
	}
	for i, f := range r.flows {
		fs := r.net.FlowStats(f)
		if fs == nil {
			rows = append(rows, fmt.Sprintf("flow%d empty", i))
			continue
		}
		rows = append(rows, fmt.Sprintf("flow%d rx=%d bytes=%d mean=%016x p95=%016x",
			i, fs.Received, fs.Bytes,
			math.Float64bits(fs.Latency.Mean()),
			math.Float64bits(fs.LatencyH.Quantile(0.95))))
	}
	for _, n := range r.net.Nodes() {
		ms := n.MAC.Stats()
		rows = append(rows, fmt.Sprintf("%s datatx=%d retries=%d deliver=%d backoff=%d",
			n.Name, ms.DataTx, ms.Retries, ms.MSDUDelivered, ms.BackoffSlots))
	}
	return rows
}

func TestGoldenTrace(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go permits FMA fusion on some architectures, so float sequences
		// are only bit-reproducible within one GOARCH. The goldens are
		// generated on amd64 (the CI architecture).
		t.Skip("golden float traces are pinned for amd64")
	}
	scenarios := []struct {
		name string
		run  func() []string
	}{
		{"adhoc", goldenAdhoc},
		{"infra", goldenInfra},
		{"e1", goldenE1},
		{"e2", goldenE2},
		{"e3", goldenE3},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			t.Parallel()
			got := strings.Join(sc.run(), "\n") + "\n"
			path := filepath.Join("testdata", "golden_"+sc.name+".txt")
			if os.Getenv("REGEN_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d rows)", path, strings.Count(got, "\n"))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
			}
			if got != string(want) {
				t.Fatalf("stats rows drifted from %s.\nThis means a refactor changed simulation "+
					"decisions; if intentional, regenerate with REGEN_GOLDEN=1.\n%s",
					path, rowDiff(string(want), got))
			}
		})
	}
}

// rowDiff renders the first few differing lines of two row dumps.
func rowDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	shown := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "row %d:\n  want: %s\n  got:  %s\n", i, wl, gl)
			if shown++; shown >= 5 {
				fmt.Fprintf(&b, "  … further diffs suppressed\n")
				break
			}
		}
	}
	return b.String()
}
