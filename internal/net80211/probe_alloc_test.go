package net80211

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Probe-exchange regression wall: answering a probe request must not
// allocate. The response body is built by frame.AppendBeacon into the AP's
// transmit scratch (like the beacon itself), and the station's probe-response
// reception is the same view-based handleBeacon path the idle-BSS wall
// already pins — so a probe storm runs at 0 allocs per exchange end to end:
// handle, marshal, enqueue, transmit, delivery to a listening station.
func TestAPProbeResponseZeroAlloc(t *testing.T) {
	w := newWorld(32, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "probe"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{
		SSID: "probe", BeaconMissLimit: 1 << 30,
	})
	w.k.RunUntil(sim.Time(2 * sim.Second))
	if !sta.Associated() {
		t.Fatalf("station never associated (state %v)", sta.state)
	}
	// Stop the beacons so the measured window holds only the probe exchange.
	ap.Stop()
	req := frame.NewMgmt(frame.SubtypeProbeReq, frame.Broadcast, sta.Address(), frame.Broadcast,
		frame.AppendIE(frame.AppendIE(nil, frame.IESSID, []byte("probe")),
			frame.IESupportedRates, []byte{frame.RateByte(2, true)}))
	exchange := func() {
		ap.handleProbe(req)
		w.k.RunFor(5 * sim.Millisecond)
	}
	// Warm-up: grow every pool once.
	for i := 0; i < 160; i++ {
		exchange()
	}
	before := sta.Stats.BeaconsSeen
	allocs := testing.AllocsPerRun(200, exchange)
	if allocs != 0 {
		t.Fatalf("probe exchange allocates %v/op, want 0", allocs)
	}
	if sta.Stats.BeaconsSeen == before {
		t.Fatal("no probe responses delivered during the measured window")
	}
}

// The station's side of the same wall: a probe request built in the
// transmit scratch with cached SSID/rates IE payloads allocates nothing per send.
func TestSTAProbeRequestZeroAlloc(t *testing.T) {
	w := newWorld(33, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(0, 0)), STAConfig{SSID: "nowhere"})
	w.k.RunFor(10 * sim.Millisecond)
	send := func() {
		sta.sendProbeReq()
		w.k.RunFor(5 * sim.Millisecond)
	}
	for i := 0; i < 160; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(200, send)
	if allocs != 0 {
		t.Fatalf("probe request allocates %v/op, want 0", allocs)
	}
}
