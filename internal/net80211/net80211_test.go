package net80211

import (
	"testing"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/wep"
)

// world is the integration testbed for the management plane.
type world struct {
	k     *sim.Kernel
	m     *medium.Medium
	src   *rng.Source
	alloc frame.AddrAllocator
}

// mgmtFrame is a management frame with the common 3-address layout: RA,
// TA, BSSID.
func mgmtFrame(sub frame.Subtype, ra, ta, bssid frame.MACAddr, body []byte) *frame.Frame {
	return &frame.Frame{Type: frame.TypeManagement, Subtype: sub, Addr1: ra, Addr2: ta, Addr3: bssid, Body: body}
}

// associatedCount is the number of stations in state 3 at ap.
func associatedCount(ap *AP) int {
	n := 0
	for _, e := range ap.stations {
		if e.state == associated {
			n++
		}
	}
	return n
}

func newWorld(seed uint64, pl spectrum.PathLoss) *world {
	k := sim.NewKernel()
	src := rng.New(seed)
	return &world{k: k, m: medium.New(k, spectrum.NewModel(pl, nil, nil), src), src: src}
}

func (w *world) dcf(name string, p geom.Point) *mac.DCF {
	mode := phy.Mode80211b()
	r := w.m.AddRadio(medium.RadioConfig{
		Name: name, Mode: mode,
		Mobility: geom.Static{P: p}, TxPower: 16,
	})
	return mac.New(w.k, r, mac.Config{Address: w.alloc.Next()},
		rate.NewFixed(mode, 3), w.src)
}

func (w *world) mobileDCF(name string, mob geom.Mobility) *mac.DCF {
	mode := phy.Mode80211b()
	r := w.m.AddRadio(medium.RadioConfig{
		Name: name, Mode: mode,
		Mobility: mob, TxPower: 16,
	})
	return mac.New(w.k, r, mac.Config{Address: w.alloc.Next()},
		rate.NewFixed(mode, 3), w.src)
}

func TestScanAuthAssociate(t *testing.T) {
	w := newWorld(1, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "testnet"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "testnet"})

	var joined frame.MACAddr
	sta.OnAssociated = func(bssid frame.MACAddr) { joined = bssid }
	w.k.RunUntil(sim.Time(2 * sim.Second))

	if !sta.Associated() {
		t.Fatalf("station never associated (state %v)", sta.state)
	}
	if joined != ap.BSSID() {
		t.Errorf("joined %v, want %v", joined, ap.BSSID())
	}
	if !ap.Associated(sta.Address()) {
		t.Error("AP does not list the station as associated")
	}
	if ap.Stats.BeaconsSent == 0 || sta.Stats.BeaconsSeen == 0 {
		t.Errorf("beacons: sent=%d seen=%d", ap.Stats.BeaconsSent, sta.Stats.BeaconsSeen)
	}
}

func TestDataThroughAP(t *testing.T) {
	w := newWorld(3, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "net"})
	staA := NewSTA(w.k, w.dcf("staA", geom.Pt(10, 0)), STAConfig{SSID: "net"})
	staB := NewSTA(w.k, w.dcf("staB", geom.Pt(0, 10)), STAConfig{SSID: "net"})

	var got []byte
	var from frame.MACAddr
	staB.OnReceive = func(src, _ frame.MACAddr, payload []byte) {
		from = src
		got = append([]byte(nil), payload...)
	}
	// Send once both are associated.
	w.k.Ticker(100*sim.Millisecond, "try-send", func() {
		if staA.Associated() && staB.Associated() && got == nil {
			staA.Send(staB.Address(), []byte("relay me"))
		}
	})
	w.k.RunUntil(sim.Time(4 * sim.Second))

	if string(got) != "relay me" {
		t.Fatalf("payload = %q", got)
	}
	if from != staA.Address() {
		t.Errorf("source = %v, want %v", from, staA.Address())
	}
	if ap.Stats.Relayed == 0 {
		t.Error("AP relay counter is zero")
	}
}

func TestESSRoamingAcrossDS(t *testing.T) {
	w := newWorld(4, spectrum.NewLogDistance(2412*units.MHz, 3.5))
	sw := ether.NewSwitch(w.k, 10*sim.Microsecond)

	ap1 := NewAP(w.k, w.dcf("ap1", geom.Pt(0, 0)), APConfig{SSID: "ess"})
	ap2 := NewAP(w.k, w.dcf("ap2", geom.Pt(120, 0)), APConfig{SSID: "ess"})
	ap1.AttachDS(sw)
	ap2.AttachDS(sw)

	// Mobile station walks from AP1 toward AP2 at 10 m/s.
	mob := geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 10}}
	sta := NewSTA(w.k, w.mobileDCF("sta", mob), STAConfig{
		SSID: "ess", RoamThreshold: -65, RoamHysteresis: 3,
	})

	// A wired host behind the switch receives the station's uplink.
	hostAddr := w.alloc.Next()
	var wiredRx int
	sw.AddPort(func(f ether.Frame) {
		if f.Dst == hostAddr {
			wiredRx++
		}
	})

	w.k.Ticker(50*sim.Millisecond, "uplink", func() {
		if sta.Associated() {
			sta.Send(hostAddr, []byte("ping"))
		}
	})
	w.k.RunUntil(sim.Time(12 * sim.Second))

	if sta.Stats.Roams == 0 && sta.Stats.LinkLosses == 0 {
		t.Error("station neither roamed nor recovered from link loss while walking away")
	}
	if sta.BSSID() != ap2.BSSID() {
		t.Errorf("station ended on %v, want ap2 %v", sta.BSSID(), ap2.BSSID())
	}
	if wiredRx == 0 {
		t.Error("no uplink traffic reached the wired host")
	}
	if ap2.Stats.ToDS == 0 {
		t.Error("ap2 forwarded nothing to the DS after the handoff")
	}
}

func TestWEPSharedKeyAuth(t *testing.T) {
	key := wep.Key{1, 2, 3, 4, 5}
	w := newWorld(5, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "secure", WEPKey: key})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "secure", WEPKey: key})

	var got []byte
	ap.OnDeliver = func(_, _ frame.MACAddr, payload []byte) { got = append([]byte(nil), payload...) }
	w.k.Ticker(100*sim.Millisecond, "send", func() {
		if sta.Associated() && got == nil {
			sta.Send(ap.BSSID(), []byte("encrypted hello"))
		}
	})
	w.k.RunUntil(sim.Time(3 * sim.Second))

	if !sta.Associated() {
		t.Fatal("shared-key auth failed")
	}
	if ap.Stats.AuthOK == 0 {
		t.Error("AP recorded no successful auth")
	}
	if string(got) != "encrypted hello" {
		t.Errorf("AP payload = %q", got)
	}
}

func TestWEPWrongKeyRejected(t *testing.T) {
	w := newWorld(6, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "secure", WEPKey: wep.Key{1, 2, 3, 4, 5}})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "secure", WEPKey: wep.Key{9, 9, 9, 9, 9}})

	w.k.RunUntil(sim.Time(3 * sim.Second))
	if sta.Associated() {
		t.Fatal("station with the wrong WEP key associated")
	}
	if ap.Stats.AuthFail == 0 {
		t.Error("AP recorded no failed auth")
	}
}

func TestOpenStationRefusedOnPrivacyBSS(t *testing.T) {
	w := newWorld(7, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "secure", WEPKey: wep.Key{1, 2, 3, 4, 5}})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "secure"})
	w.k.RunUntil(sim.Time(2 * sim.Second))
	if sta.Associated() {
		t.Fatal("open-auth station joined a privacy BSS")
	}
}

func TestPowerSaveBuffering(t *testing.T) {
	w := newWorld(8, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "ps"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "ps", PowerSave: true})

	var got int
	sta.OnReceive = func(_, _ frame.MACAddr, _ []byte) { got++ }

	// Downlink traffic while the station dozes: must be buffered and
	// fetched via TIM + PS-Poll.
	sent := 0
	w.k.Ticker(300*sim.Millisecond, "downlink", func() {
		if sta.Associated() && sent < 5 {
			if ap.Send(sta.Address(), []byte("wake up")) {
				sent++
			}
		}
	})
	w.k.RunUntil(sim.Time(5 * sim.Second))

	if sent == 0 {
		t.Fatal("AP never accepted downlink traffic")
	}
	if got < sent {
		t.Errorf("station received %d of %d buffered payloads", got, sent)
	}
	if ap.Stats.PSBuffered == 0 {
		t.Error("AP never buffered for the dozing station")
	}
	if sta.Stats.PSPollsSent == 0 {
		t.Error("station never sent PS-Poll")
	}
	if sta.dcf.Radio().Stats.SleepTime == 0 {
		t.Error("station radio never slept")
	}
}

func TestPowerSaveSleepFraction(t *testing.T) {
	// An idle PS station should sleep for a large fraction of the run.
	w := newWorld(9, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "ps"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "ps", PowerSave: true})
	const run = 10 * sim.Second
	w.k.RunUntil(sim.Time(run))
	if !sta.Associated() {
		t.Fatal("not associated")
	}
	slept := sta.dcf.Radio().Stats.SleepTime
	frac := slept.Seconds() / run.Seconds()
	if frac < 0.5 {
		t.Errorf("idle PS station slept only %.0f%% of the run", frac*100)
	}
}

func TestAdhocExchange(t *testing.T) {
	w := newWorld(10, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	bssid := IBSSID()
	a := NewAdhoc(w.k, w.dcf("a", geom.Pt(0, 0)), bssid)
	b := NewAdhoc(w.k, w.dcf("b", geom.Pt(10, 0)), bssid)
	c := NewAdhoc(w.k, w.dcf("c", geom.Pt(0, 10)), bssid)

	var bGot, cGot int
	b.OnReceive = func(_, _ frame.MACAddr, _ []byte) { bGot++ }
	c.OnReceive = func(_, _ frame.MACAddr, _ []byte) { cGot++ }

	w.k.Schedule(0, "send", func() {
		a.Send(b.Address(), []byte("unicast"))
		a.Send(frame.Broadcast, []byte("to everyone"))
	})
	w.k.RunUntil(sim.Time(1 * sim.Second))

	if bGot != 2 { // unicast + broadcast
		t.Errorf("b received %d payloads, want 2", bGot)
	}
	if cGot != 1 { // broadcast only
		t.Errorf("c received %d payloads, want 1", cGot)
	}
}

func TestAdhocIgnoresForeignBSS(t *testing.T) {
	w := newWorld(11, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	a := NewAdhoc(w.k, w.dcf("a", geom.Pt(0, 0)), IBSSID())
	other := frame.MACAddr{0x02, 0xad, 0x0c, 0, 0, 0x99}
	b := NewAdhoc(w.k, w.dcf("b", geom.Pt(10, 0)), other)

	got := 0
	b.OnReceive = func(_, _ frame.MACAddr, _ []byte) { got++ }
	w.k.Schedule(0, "send", func() { a.Send(frame.Broadcast, []byte("x")) })
	w.k.RunUntil(sim.Time(1 * sim.Second))
	if got != 0 {
		t.Error("node accepted broadcast from a foreign IBSS")
	}
}

func TestSwitchLearning(t *testing.T) {
	k := sim.NewKernel()
	sw := ether.NewSwitch(k, 0)
	var rx [3][]ether.Frame
	ports := make([]*ether.Port, 3)
	for i := 0; i < 3; i++ {
		i := i
		ports[i] = sw.AddPort(func(f ether.Frame) { rx[i] = append(rx[i], f) })
	}
	a := frame.MACAddr{2, 0, 0, 0, 0, 1}
	b := frame.MACAddr{2, 0, 0, 0, 0, 2}

	// Unknown destination floods; reply teaches; then unicast is pointed.
	ports[0].Send(ether.Frame{Dst: b, Src: a, Payload: []byte("hi")})
	k.Run()
	if len(rx[1]) != 1 || len(rx[2]) != 1 {
		t.Fatalf("flood counts: %d %d", len(rx[1]), len(rx[2]))
	}
	ports[1].Send(ether.Frame{Dst: a, Src: b, Payload: []byte("yo")})
	k.Run()
	if len(rx[0]) != 1 || len(rx[2]) != 1 {
		t.Fatalf("learned reply went astray: %d %d", len(rx[0]), len(rx[2]))
	}
	ports[0].Send(ether.Frame{Dst: b, Src: a, Payload: []byte("again")})
	k.Run()
	if len(rx[1]) != 2 {
		t.Error("switch did not learn b's port")
	}
	if len(rx[2]) != 1 {
		t.Error("learned unicast still flooded")
	}
	if sw.Forwarded == 0 || sw.Flooded == 0 {
		t.Errorf("switch counters: fwd=%d flood=%d", sw.Forwarded, sw.Flooded)
	}
}
