package net80211

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

func TestDeauthForcesRescan(t *testing.T) {
	w := newWorld(43, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "net"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "net"})
	w.k.RunUntil(sim.Time(1 * sim.Second))
	if !sta.Associated() {
		t.Fatal("initial association failed")
	}
	assocsBefore := sta.Stats.Associations

	// AP kicks the station. Neither side reads a deauth body; 4 is the
	// standard's reason code for inactivity.
	w.k.Schedule(0, "deauth", func() {
		f := mgmtFrame(frame.SubtypeDeauth, sta.Address(), ap.BSSID(), ap.BSSID(), []byte{4, 0})
		ap.dcf.Enqueue(f)
	})
	w.k.RunUntil(sim.Time(4 * sim.Second))

	if sta.Stats.LinkLosses == 0 {
		t.Error("deauth did not register as link loss")
	}
	if sta.Stats.Associations <= assocsBefore {
		t.Error("station did not reassociate after deauth")
	}
	if !sta.Associated() {
		t.Error("station ends unassociated despite the AP still beaconing")
	}
}

func TestPSBufferCapDropsExcess(t *testing.T) {
	w := newWorld(44, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "ps", PSBufferCap: 2})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "ps", PowerSave: true})
	w.k.RunUntil(sim.Time(1 * sim.Second))
	if !sta.Associated() {
		t.Fatal("association failed")
	}
	// Burst 10 downlink frames while the station dozes between beacons:
	// only 2 fit the buffer.
	w.k.Schedule(30*sim.Millisecond, "burst", func() {
		if !sta.dcf.Radio().Asleep() {
			return // timing raced a wake window; counters below still guard
		}
		for i := 0; i < 10; i++ {
			ap.Send(sta.Address(), []byte("burst burst burst"))
		}
	})
	w.k.RunUntil(sim.Time(3 * sim.Second))
	if ap.Stats.PSDropped == 0 {
		t.Error("PS buffer cap never dropped")
	}
	if ap.Stats.PSBuffered == 0 {
		t.Error("nothing was buffered at all")
	}
}

func TestRoamTracksStrongerAP(t *testing.T) {
	// Station between two APs; the serving one's signal degrades as the
	// station drifts, the candidate improves: a roam must eventually fire
	// without any link loss.
	w := newWorld(45, spectrum.NewLogDistance(2412*units.MHz, 3.5))
	NewAP(w.k, w.dcf("ap1", geom.Pt(0, 0)), APConfig{SSID: "ess"})
	ap2 := NewAP(w.k, w.dcf("ap2", geom.Pt(80, 0)), APConfig{SSID: "ess"})
	mob := geom.Linear{Start: geom.Pt(8, 0), Velocity: geom.Vector{X: 8}}
	sta := NewSTA(w.k, w.mobileDCF("sta", mob), STAConfig{
		SSID: "ess", RoamThreshold: -60, RoamHysteresis: 3,
	})
	w.k.RunUntil(sim.Time(9 * sim.Second))
	if sta.BSSID() != ap2.BSSID() {
		t.Fatalf("station on %v, want ap2", sta.BSSID())
	}
	if sta.Stats.Roams == 0 {
		t.Error("no explicit roam recorded (fell back to link loss?)")
	}
}
