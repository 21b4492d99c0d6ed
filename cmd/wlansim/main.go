// Command wlansim runs a single configurable WLAN scenario and prints the
// measured results. It is the quick-look tool; the experiments command
// regenerates the full evaluation suite.
//
// Examples:
//
//	wlansim -n 10 -mode 802.11b -duration 5s
//	wlansim -n 2 -rate minstrel -fading rayleigh -distance 60
//	wlansim -topology infra -n 4 -trace trace.jsonl
package main

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	var (
		topology = flag.String("topology", "adhoc", "adhoc (saturated star) or infra (AP + stations)")
		n        = flag.Int("n", 5, "number of sending stations")
		mode     = flag.String("mode", "802.11b", "PHY mode: 802.11, 802.11a, 802.11b, 802.11g")
		rateCtl  = flag.String("rate", "fixed", "rate control: fixed[:idx], arf, aarf, samplerate, minstrel")
		fading   = flag.String("fading", "", "fading: none, rayleigh, rician:<K>")
		blockLen = flag.Duration("coherence", 0, "fading coherence time (0 = 10ms)")
		shadow   = flag.Float64("shadow", 0, "log-normal shadowing deviation in dB (0 = none)")
		rts      = flag.Int("rts", 0, "RTS threshold in bytes (0 = off)")
		payload  = flag.Int("payload", 1500, "payload bytes per packet")
		distance = flag.Float64("distance", 5, "sender distance from the sink/AP in metres")
		duration = flag.Duration("duration", 3*time.Second, "virtual run time")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		traceOut = flag.String("trace", "", "write a JSONL frame trace to this file")
	)
	flag.Parse()

	cfg := core.Config{
		Seed:            *seed,
		Mode:            *mode,
		RateAdapt:       *rateCtl,
		Fading:          *fading,
		FadingCoherence: sim.Duration(blockLen.Nanoseconds()),
		ShadowSigmaDB:   *shadow,
		RTSThreshold:    *rts,
	}
	err := cfg.Validate()
	switch {
	case err != nil:
	case flag.NArg() > 0: // flag.Parse stops there: later flags would be dropped
		err = fmt.Errorf("unexpected argument %q: every option is a flag", flag.Arg(0))
	case *n < 1:
		err = fmt.Errorf("-n %d: need at least one sending station", *n)
	case *payload < 1 || *payload > frame.MaxMSDU-frame.SnapHeaderLen:
		err = fmt.Errorf("-payload %d: want 1 to %d bytes (an MSDU less its LLC/SNAP header)", *payload, frame.MaxMSDU-frame.SnapHeaderLen)
	case !(*distance >= 0) || math.IsInf(*distance, 1):
		err = fmt.Errorf("-distance %v: want a finite distance in metres, 0 or more", *distance)
	case *duration <= 0:
		err = fmt.Errorf("-duration %v: need a positive run time", *duration)
	case *topology != "adhoc" && *topology != "infra":
		err = fmt.Errorf("-topology %q: want adhoc or infra", *topology)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "wlansim:", err)
		os.Exit(2)
	}
	var traceFile *os.File
	var traceBuf *bufio.Writer
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlansim:", err)
			os.Exit(1)
		}
		traceFile, traceBuf = f, bufio.NewWriter(f)
		cfg.Tracer = trace.JSONL{W: traceBuf}
	}

	net := core.NewNetwork(cfg)
	dur := sim.Duration(duration.Nanoseconds())

	var flows []uint32
	switch *topology {
	case "adhoc":
		sink := net.AddAdhoc("sink", geom.Pt(0, 0))
		pts := geom.Circle(*n, *distance, geom.Pt(0, 0))
		for i := 0; i < *n; i++ {
			s := net.AddAdhoc(fmt.Sprintf("sta%d", i), pts[i])
			flows = append(flows, net.Saturate(s, sink, *payload))
		}
	case "infra":
		ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "wlansim"})
		pts := geom.Circle(*n, *distance, geom.Pt(0, 0))
		var nodes []*core.Node
		for i := 0; i < *n; i++ {
			nodes = append(nodes, net.AddStation(fmt.Sprintf("sta%d", i), pts[i],
				net80211.STAConfig{SSID: "wlansim"}))
		}
		net.Run(1 * sim.Second) // association phase
		for _, s := range nodes {
			flows = append(flows, net.Saturate(s, ap, *payload))
		}
	}

	net.Run(dur)
	if traceFile != nil {
		// bufio.Writer keeps its first write error, so Flush reports any
		// the tracer met.
		err := traceBuf.Flush()
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "wlansim: -trace:", err)
			os.Exit(1)
		}
	}

	table := stats.NewTable(
		fmt.Sprintf("wlansim: %s, %d stations, %s, rate=%s, %v",
			*mode, *n, *topology, *rateCtl, *duration),
		"flow", "Mbit/s", "delivered", "loss %", "mean delay ms", "retries")
	var agg float64
	var per []float64
	for i, id := range flows {
		fs := net.FlowStats(id)
		node := net.Nodes()[i+1] // index 0 is the sink/AP
		if fs == nil {
			table.AddRow(fmt.Sprint(id), "0.00", "0", "100.0", "-", fmt.Sprint(node.MAC.Stats().Retries))
			per = append(per, 0)
			continue
		}
		// Goodput over the measured run only: infra's association phase
		// has run too, but no flow was attached yet.
		tput := float64(fs.Bytes*8) / dur.Seconds()
		agg += tput
		per = append(per, tput)
		table.AddRow(fmt.Sprint(id), stats.Mbps(tput), fmt.Sprint(fs.Received),
			stats.F(100*fs.LossRatio(), 1), stats.F(fs.Latency.Mean()*1000, 2),
			fmt.Sprint(node.MAC.Stats().Retries))
	}
	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "%s\naggregate: %s Mbit/s   jain fairness: %s\n",
		table.Render(), stats.Mbps(agg), stats.F(stats.JainIndex(per), 4))
	if err := out.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, "wlansim: stdout:", err)
		os.Exit(1)
	}
}
