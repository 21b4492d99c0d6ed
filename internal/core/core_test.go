package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

func TestAdhocSaturationEndToEnd(t *testing.T) {
	net := NewNetwork(Config{Seed: 1, PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
	a := net.AddAdhoc("a", geom.Pt(0, 0))
	b := net.AddAdhoc("b", geom.Pt(10, 0))
	flow := net.Saturate(a, b, 1500)
	net.Run(2 * sim.Second)

	tput := net.FlowThroughput(flow)
	// 11 Mbit/s 11b saturation with one station: ~5.5-7 Mbit/s goodput.
	if tput < 4e6 || tput > 8e6 {
		t.Errorf("throughput = %.2f Mbit/s, want 4-8", tput/1e6)
	}
	if fs := net.FlowStats(flow); fs == nil || fs.Latency.Mean() <= 0 {
		t.Error("no latency measurements")
	}
}

func TestInfrastructureEndToEnd(t *testing.T) {
	net := NewNetwork(Config{Seed: 2, PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
	ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "lab"})
	sta := net.AddStation("sta", geom.Pt(10, 0), net80211.STAConfig{SSID: "lab"})

	// Give association a second, then measure an uplink CBR flow.
	net.Run(1 * sim.Second)
	if !sta.STA.Associated() {
		t.Fatal("station not associated after 1s")
	}
	flow := net.CBR(sta, ap, 500, 10*sim.Millisecond)
	net.Run(2 * sim.Second)

	fs := net.FlowStats(flow)
	if fs == nil {
		t.Fatal("no packets delivered through the AP")
	}
	if fs.LossRatio() > 0.05 {
		t.Errorf("CBR loss = %.3f on a clean channel", fs.LossRatio())
	}
}

func TestConfigVariants(t *testing.T) {
	for _, cfg := range []Config{
		{Mode: "802.11a", RateAdapt: "minstrel", Fading: "rayleigh"},
		{Mode: "802.11g", RateAdapt: "arf", Fading: "rician:8"},
		{Mode: "802.11", RateAdapt: "fixed:0", ShadowSigmaDB: 4},
		{Mode: "802.11b", RateAdapt: "samplerate", CaptureMarginDB: 10},
		{Mode: "802.11b", RateAdapt: "aarf", RTSThreshold: 500, FragThreshold: 1000},
	} {
		net := NewNetwork(cfg)
		a := net.AddAdhoc("a", geom.Pt(0, 0))
		b := net.AddAdhoc("b", geom.Pt(15, 0))
		flow := net.Saturate(a, b, 1000)
		net.Run(500 * sim.Millisecond)
		if net.FlowStats(flow) == nil {
			t.Errorf("config %+v delivered nothing", cfg)
		}
	}
}

// badConfigs pairs each spec NewNetwork must reject with a fragment of the
// error naming it.
var badConfigs = []struct {
	cfg  Config
	want string
}{
	{Config{Mode: "802.11ax"}, `unknown mode "802.11ax"`},
	{Config{Fading: "quantum"}, `unknown fading model "quantum"`},
	{Config{Fading: "rician:lots"}, `bad fading spec "rician:lots"`},
	{Config{Fading: "rician:NaN"}, `bad fading spec "rician:NaN"`},
	{Config{Fading: "rician:-1"}, `bad fading spec "rician:-1"`},
	{Config{Fading: "rayleigh", FadingCoherence: -sim.Millisecond}, `bad fading coherence -1`},
	{Config{FadingCoherence: -1}, `bad fading coherence -1ns`},
	{Config{ShadowSigmaDB: -4}, `bad shadowing sigma -4 dB`},
	{Config{ShadowSigmaDB: math.NaN()}, `bad shadowing sigma NaN dB`},
	{Config{ShadowSigmaDB: math.Inf(1)}, `bad shadowing sigma +Inf dB`},
	{Config{CaptureMarginDB: math.NaN()}, `bad capture margin NaN dB`},
	{Config{CaptureMarginDB: math.Inf(1)}, `bad capture margin +Inf dB`},
	{Config{CaptureMarginDB: math.Inf(-1)}, `bad capture margin -Inf dB`},
	{Config{CaptureMarginDB: -3}, `bad capture margin -3 dB`},
	{Config{TxPower: units.DBm(math.NaN())}, `bad transmit power NaN dBm`},
	{Config{TxPower: units.DBm(math.Inf(1))}, `bad transmit power +Inf dBm`},
	{Config{TxPower: units.DBm(math.Inf(-1))}, `bad transmit power -Inf dBm`},
	{Config{QueueCap: -1}, `bad MAC override, want 0 (the default) or more: QueueCap -1,`},
	{Config{CWmin: -31}, `bad MAC override, want 0 (the default) or more: QueueCap 0, CWmin -31,`},
	{Config{CWmax: -1023}, `CWmax -1023,`},
	{Config{RTSThreshold: -5}, `RTSThreshold -5,`},
	{Config{FragThreshold: -256}, `FragThreshold -256`},
	{Config{FragThreshold: 1}, `bad fragmentation threshold 1: want 256 or more`},
	{Config{FragThreshold: 100}, `bad fragmentation threshold 100: want 256 or more`},
	{Config{FragThreshold: 255}, `bad fragmentation threshold 255: want 256 or more`},
	{Config{CWmin: 63, CWmax: 31}, `CWmin 63 above CWmax 31`},
	{Config{CWmin: 2047}, `CWmin 2047 above CWmax 1023`},
	{Config{Mode: "802.11a", CWmax: 7}, `CWmin 15 above CWmax 7`},
	{Config{RateAdapt: "magic"}, `unknown rate adaptation "magic"`},
	{Config{RateAdapt: "fixed:x"}, `bad rate spec "fixed:x"`},
	{Config{RateAdapt: "fixed:4"}, `802.11b has rates 0..3`},
	{Config{RateAdapt: "fixed:-1"}, `802.11b has rates 0..3`},
	{Config{Mode: "802.11g", RateAdapt: "fixed:8"}, `802.11g has rates 0..7`},
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range badConfigs {
		err := tc.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate(%+v) = %v, want an error containing %q", tc.cfg, err, tc.want)
		}
	}
	// Every spec the harness, the benchmark and the examples use.
	good := []Config{{}, {Fading: "none"}, {Fading: "rician"}, {Fading: "rician:8"}, {Fading: "rician:0"},
		{Fading: "rayleigh", FadingCoherence: sim.Millisecond, ShadowSigmaDB: 4}}
	for _, m := range []string{"802.11", "802.11a", "802.11b", "802.11g"} {
		good = append(good, Config{Mode: m, RateAdapt: "fixed:0"})
	}
	for _, r := range []string{"fixed", "fixed:1", "fixed:3", "arf", "aarf", "samplerate", "minstrel"} {
		good = append(good, Config{RateAdapt: r, Fading: "rayleigh"})
	}
	good = append(good, Config{Mode: "802.11g", RateAdapt: "fixed:7"},
		Config{QueueCap: 1, CWmin: 1023, RTSThreshold: 1, FragThreshold: 256}, Config{CWmin: 7, CWmax: 7}, Config{TxPower: -20},
		Config{CaptureMarginDB: 10}, Config{CaptureMarginDB: 3}, Config{CaptureMarginDB: 30})
	for _, cfg := range good {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", cfg, err)
		}
	}
}

// At the smallest threshold Validate accepts, the largest payload wlansim
// sends (frame.MaxMSDU less the SNAP header) travels in 11 fragments, and
// every MSDU reaches the sink whole.
func TestFragThresholdFloorDeliversWhole(t *testing.T) {
	const payload = frame.MaxMSDU - frame.SnapHeaderLen
	net := NewNetwork(Config{Seed: 1, FragThreshold: 256})
	a, b := net.AddAdhoc("a", geom.Pt(0, 0)), net.AddAdhoc("b", geom.Pt(5, 0))
	id := net.CBR(a, b, payload, 20*sim.Millisecond)
	net.Run(1 * sim.Second)
	net.StopTraffic()
	net.Run(100 * sim.Millisecond)
	offered := net.Generators()[id-1].Offered
	fs := net.FlowStats(id)
	if offered < 50 || fs == nil || fs.Received != offered || fs.Bytes != offered*payload || net.Sink().Unparsed != 0 {
		t.Fatalf("offered %d, flow %+v, unparsed %d: want every MSDU delivered whole", offered, fs, net.Sink().Unparsed)
	}
	if tx := a.MAC.Stats().DataTx; tx < 11*offered {
		t.Errorf("%d data MPDUs for %d MSDUs, want at least 11 fragments each", tx, offered)
	}
}

// NewNetwork panics with exactly the error Validate reports, and a
// per-node rate override goes through the same parser.
func TestBadConfigsPanic(t *testing.T) {
	panicOf := func(f func()) (v any) {
		defer func() { v = recover() }()
		f()
		return nil
	}
	for _, tc := range badConfigs {
		got, _ := panicOf(func() { NewNetwork(tc.cfg) }).(error)
		if want := tc.cfg.Validate(); got == nil || got.Error() != want.Error() {
			t.Errorf("NewNetwork(%+v) panicked with %v, want %v", tc.cfg, got, want)
		}
	}
	for _, spec := range []string{"magic", "fixed:x", "fixed:4"} {
		if panicOf(func() { NewNetwork(Config{}).AddAdhocOpts("a", geom.Pt(0, 0), NodeOpts{RateAdapt: spec}) }) == nil {
			t.Errorf("per-node rate spec %q did not panic", spec)
		}
	}
}

// A flow whose source would reschedule itself at the same instant forever
// is refused when it is attached, before anything runs.
func TestBadFlowPanics(t *testing.T) {
	net := NewNetwork(Config{})
	a, b := net.AddAdhoc("a", geom.Pt(0, 0)), net.AddAdhoc("b", geom.Pt(5, 0))
	for i, attach := range []func(){
		func() { net.CBR(a, b, 100, 0) },
		func() { net.CBR(a, b, 100, -sim.Millisecond) },
		func() { net.Broadcast(a, 100, 0) },
		func() { net.Broadcast(a, 100, -1) },
		func() { net.Poisson(a, b, 100, 0) },
		func() { net.Poisson(a, b, 100, -5) },
		func() { net.Poisson(a, b, 100, math.NaN()) },
		func() { net.Poisson(a, b, 100, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: bad ") {
					t.Errorf("case %d panicked with %q, want a \"core: bad …\" message", i, msg)
				}
			}()
			attach()
		}()
	}
	if len(net.Generators()) != 0 {
		t.Errorf("%d flows attached by refused calls", len(net.Generators()))
	}
}

// A capture margin alone turns capture on: F9's near/far topology (hidden
// senders 25 dB apart at the sink) run with CaptureMarginDB 10 gives the
// sink exactly the counters it had when capture needed a separate switch
// beside the margin. Without capture the far sender gets frames through.
func TestCaptureMarginAloneEnablesCapture(t *testing.T) {
	posSink, posNear, posFar := geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(40, 0)
	names := map[geom.Point]string{posSink: "sink", posNear: "near", posFar: "far"}
	pl := spectrum.MatrixLoss{
		Default: 70,
		Pairs: map[string]units.DB{
			spectrum.PairKey("near", "sink"): 60, spectrum.PairKey("sink", "near"): 60,
			spectrum.PairKey("far", "sink"): 85, spectrum.PairKey("sink", "far"): 85,
			spectrum.PairKey("near", "far"): 200, spectrum.PairKey("far", "near"): 200,
		},
		Resolver: func(p geom.Point) string { return names[p] },
	}
	run := func(margin float64) (medium.RadioStats, [2]uint64) {
		net := NewNetwork(Config{Seed: 900, CaptureMarginDB: margin, PathLoss: pl})
		sink := net.AddAdhoc("sink", posSink)
		near := net.AddAdhoc("near", posNear)
		far := net.AddAdhoc("far", posFar)
		flows := [2]uint32{net.Saturate(near, sink, 1000), net.Saturate(far, sink, 1000)}
		net.Run(500 * sim.Millisecond)
		var got [2]uint64
		for i, id := range flows {
			if fs := net.FlowStats(id); fs != nil {
				got[i] = fs.Received
			}
		}
		return sink.Radio.Stats, got
	}
	want := medium.RadioStats{TxFrames: 320, TxAirtime: 79360 * sim.Microsecond, RxFrames: 320,
		RxAirtime: 302545600 * sim.Nanosecond, RxOverlaps: 77}
	if st, rx := run(10); st != want || rx != [2]uint64{320, 0} {
		t.Errorf("margin 10: sink %+v, near/far received %v; want %+v, [320 0]", st, rx, want)
	}
	if _, rx := run(0); rx[1] == 0 {
		t.Errorf("margin 0: near/far received %v; the far sender should get through without capture", rx)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	net := NewNetwork(Config{})
	net.AddAdhoc("x", geom.Pt(0, 0))
	defer func() {
		if recover() == nil {
			t.Error("duplicate name accepted")
		}
	}()
	net.AddAdhoc("x", geom.Pt(1, 0))
}

func TestDeterministicScenario(t *testing.T) {
	run := func() (float64, uint64) {
		net := NewNetwork(Config{Seed: 33, Fading: "rayleigh", RateAdapt: "minstrel"})
		a := net.AddAdhoc("a", geom.Pt(0, 0))
		b := net.AddAdhoc("b", geom.Pt(45, 0))
		flow := net.Saturate(a, b, 1200)
		net.Run(1 * sim.Second)
		return net.FlowThroughput(flow), a.MAC.Stats().Retries
	}
	t1, r1 := run()
	t2, r2 := run()
	if t1 != t2 || r1 != r2 {
		t.Fatalf("scenario not deterministic: (%v,%v) vs (%v,%v)", t1, r1, t2, r2)
	}
}

func TestMultipleFlowsSeparateStats(t *testing.T) {
	net := NewNetwork(Config{Seed: 4, PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
	a := net.AddAdhoc("a", geom.Pt(0, 0))
	b := net.AddAdhoc("b", geom.Pt(10, 0))
	c := net.AddAdhoc("c", geom.Pt(0, 10))
	f1 := net.CBR(a, b, 300, 20*sim.Millisecond)
	f2 := net.CBR(c, b, 300, 30*sim.Millisecond)
	net.Run(1 * sim.Second)
	s1, s2 := net.FlowStats(f1), net.FlowStats(f2)
	if s1 == nil || s2 == nil {
		t.Fatal("missing flow stats")
	}
	if s1.Received <= s2.Received {
		t.Errorf("flow rates inverted: %d vs %d", s1.Received, s2.Received)
	}
	if net.AggregateThroughput() <= 0 {
		t.Error("aggregate throughput zero")
	}
}

// kindTally counts trace events by kind.
type kindTally map[trace.Kind]int

func (k kindTally) Trace(ev trace.Event) { k[ev.Kind]++ }

// TestTracerPlumbing: Config.Tracer reaches the medium and the management
// plane alike — an ad-hoc pair's frames, an AP's associations and a
// power-saving station's transitions all show up.
func TestTracerPlumbing(t *testing.T) {
	c := kindTally{}
	net := NewNetwork(Config{Seed: 5, Tracer: c})
	a := net.AddAdhoc("a", geom.Pt(0, 0))
	b := net.AddAdhoc("b", geom.Pt(10, 0))
	net.CBR(a, b, 200, 50*sim.Millisecond)
	ap := net.AddAP("ap", geom.Pt(0, 20), net80211.APConfig{SSID: "plumb"})
	sta := net.AddStation("sta", geom.Pt(10, 20), net80211.STAConfig{SSID: "plumb", PowerSave: true})
	net.Run(500 * sim.Millisecond)
	if c[trace.KindTx] == 0 || c[trace.KindRxOK] == 0 || c[trace.KindMgmt] < 2 || c[trace.KindPS] < 1 {
		t.Errorf("tracer saw %v, want tx and rx-ok events, at least 2 mgmt and 1 ps", map[trace.Kind]int(c))
	}
	if !ap.AP.Associated(sta.STA.Address()) {
		t.Error("the station never associated")
	}
}

func TestStopTraffic(t *testing.T) {
	net := NewNetwork(Config{Seed: 6})
	a := net.AddAdhoc("a", geom.Pt(0, 0))
	b := net.AddAdhoc("b", geom.Pt(10, 0))
	flow := net.CBR(a, b, 300, 10*sim.Millisecond)
	net.Run(500 * sim.Millisecond)
	before := net.FlowStats(flow).Received
	net.StopTraffic()
	net.Run(500 * sim.Millisecond)
	after := net.FlowStats(flow).Received
	if after > before+2 {
		t.Errorf("traffic kept flowing after stop: %d -> %d", before, after)
	}
}

// A run cut short by Kernel.Stop counts only the virtual time it covered,
// and the next Run resumes the events the stop left queued.
func TestRunStoppedCountsTimeActuallyRun(t *testing.T) {
	net := NewNetwork(Config{Seed: 6})
	k := net.Kernel()
	later := false
	k.Schedule(200*sim.Millisecond, "stop", k.Stop)
	k.Schedule(300*sim.Millisecond, "later", func() { later = true })
	net.Run(1 * sim.Second)
	if net.Elapsed() != 200*sim.Millisecond {
		t.Fatalf("Elapsed = %v after a run stopped at 200ms, want 200ms", net.Elapsed())
	}
	net.Run(1 * sim.Second)
	if !later || net.Elapsed() != 1200*sim.Millisecond {
		t.Fatalf("after resuming: later ran=%v Elapsed=%v, want true and 1.2s", later, net.Elapsed())
	}
}

// AddESS wires one AP per position onto the shared DS under a common SSID;
// a station walking the corridor roams between members and the ESS handle
// tracks its serving AP and the stale-association handoff drops.
func TestAddESSCorridor(t *testing.T) {
	net := NewNetwork(Config{Seed: 31})
	ess, aps := net.AddESS("corr", []geom.Point{geom.Pt(0, 0), geom.Pt(80, 0)}, net80211.APConfig{})
	if len(aps) != 2 || aps[0].Name != "corr-ap0" || aps[1].Name != "corr-ap1" {
		t.Fatalf("AddESS nodes = %v", []string{aps[0].Name, aps[1].Name})
	}
	sta := net.AddMobileStation("walker",
		geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 12}},
		net80211.STAConfig{SSID: "corr", RoamThreshold: -65, RoamHysteresis: 6})
	flow := net.CBR(sta, aps[0], 300, 100*sim.Millisecond)
	net.Run(8 * sim.Second)

	if sta.STA.Stats.Roams == 0 {
		t.Fatal("walker never roamed")
	}
	if got := ess.ServingAP(sta.Address()); got != aps[1].AP {
		t.Fatalf("walker serving AP = %v, want corr-ap1", got)
	}
	if ess.Handoffs() == 0 {
		t.Fatal("no stale association was dropped over the DS")
	}
	if fs := net.FlowStats(flow); fs == nil || fs.Received == 0 {
		t.Fatal("uplink delivered nothing across the corridor")
	}
}

func TestMobileStationHelper(t *testing.T) {
	net := NewNetwork(Config{Seed: 22})
	a := net.AddAdhoc("a", geom.Pt(0, 0))
	// Repurpose adhoc node mobility: nodes expose their radio.
	a.Radio.SetMobility(geom.Linear{Start: geom.Pt(0, 0), Velocity: geom.Vector{X: 5}})
	net.Run(2 * sim.Second)
	if got := a.Radio.Position().X; got < 9.9 || got > 10.1 {
		t.Errorf("mobile node at x=%v after 2s at 5 m/s", got)
	}
}

func TestAdhocRateOverride(t *testing.T) {
	net := NewNetwork(Config{Seed: 23, RateAdapt: "fixed:3", PathLoss: spectrum.FreeSpace{Freq: 2412 * units.MHz}})
	sink := net.AddAdhoc("sink", geom.Pt(0, 0))
	fast := net.AddAdhoc("fast", geom.Pt(5, 0))
	slow := net.AddAdhocOpts("slow", geom.Pt(0, 5), NodeOpts{RateAdapt: "fixed:0"})
	ff := net.Saturate(fast, sink, 1000)
	fs := net.Saturate(slow, sink, 1000)
	net.Run(1 * sim.Second)

	// Frame counts should be near-equal (DCF per-frame fairness) while the
	// slow node burns far more airtime.
	fFrames := net.FlowStats(ff).Received
	sFrames := net.FlowStats(fs).Received
	ratio := float64(fFrames) / float64(sFrames)
	if ratio < 0.7 || ratio > 1.4 {
		t.Errorf("frame-count ratio fast/slow = %.2f, want ~1 (per-frame fairness)", ratio)
	}
	if slow.Radio.Stats.TxAirtime <= fast.Radio.Stats.TxAirtime {
		t.Error("slow node should consume more airtime per equal frames")
	}
}
