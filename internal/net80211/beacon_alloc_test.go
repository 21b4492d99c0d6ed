package net80211

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Idle-BSS regression wall: a beaconing AP with nothing else to do must not
// allocate. The beacon body is built by frame.AppendBeacon into the
// transmit scratch, the TIM scratch and the supported-rates IE are reused, and the
// kernel's ticker plus the medium's broadcast fan-out were already pooled —
// so a whole beacon interval (TIM rebuild, marshal, enqueue, transmit,
// delivery to an associated station, ticker re-arm) runs at 0 allocs/op.
func TestAPBeaconZeroAlloc(t *testing.T) {
	w := newWorld(31, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "idle"})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{
		SSID: "idle", BeaconMissLimit: 1 << 30,
	})
	// Associate, then let the BSS go idle: from here on the only traffic is
	// the beacon.
	w.k.RunUntil(sim.Time(2 * sim.Second))
	if !sta.Associated() {
		t.Fatalf("station never associated (state %v)", sta.state)
	}
	// Warm-up: grow every pool through a stretch of idle beaconing.
	w.k.RunFor(50 * 100 * TU)

	before := ap.Stats.BeaconsSent
	allocs := testing.AllocsPerRun(100, func() {
		w.k.RunFor(100 * TU)
	})
	if allocs != 0 {
		t.Fatalf("idle BSS allocates %v per beacon interval, want 0", allocs)
	}
	if ap.Stats.BeaconsSent == before {
		t.Fatal("no beacons sent during the measured window")
	}
}

// The hostile half of the beacon path: handleBeacon fed every truncation of
// a valid beacon body, each inside a frame with a valid FCS (so nothing
// upstream filters it). A body cut anywhere but on an element boundary is
// rejected whole — not counted, no candidate created from the half of the
// list that did parse — and one cut on a boundary is used as far as it goes.
func TestHandleBeaconTruncatedBodies(t *testing.T) {
	w := newWorld(34, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(0, 0)), STAConfig{SSID: "cut"})
	full := frame.AppendBeacon(nil, &frame.Beacon{
		IntervalTU: 100, Capability: frame.CapESS | frame.CapPrivacy,
		SSID: "cut", Rates: []byte{0x82, 0x84}, Channel: 6,
		TIM: &frame.TIM{DTIMPeriod: 3, AIDs: []uint16{1, 9}},
	})
	// Element boundaries, walked by hand: fixed header, then each element.
	boundary := map[int]bool{12: true}
	for off := 12; off < len(full); {
		off += 2 + int(full[off+1])
		boundary[off] = true
	}
	const ssidEnd = 12 + 2 + 3
	var alloc frame.AddrAllocator
	for cut := 0; cut <= len(full); cut++ {
		bssid := alloc.Next()
		wire := mgmtFrame(frame.SubtypeBeacon, frame.Broadcast, bssid, bssid, full[:cut]).AppendWire(nil)
		var f frame.Frame
		if err := frame.UnmarshalInto(&f, wire); err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		seen, cands := sta.Stats.BeaconsSeen, len(sta.cands)
		sta.handleBeacon(&f, medium.RxInfo{RSSI: -50})
		c := sta.cands[bssid]
		if !boundary[cut] {
			if c != nil || len(sta.cands) != cands || sta.Stats.BeaconsSeen != seen {
				t.Fatalf("cut=%d: a rejected body touched the candidate table (%+v)", cut, c)
			}
			continue
		}
		if c == nil || sta.Stats.BeaconsSeen != seen+1 {
			t.Fatalf("cut=%d: a well-formed body was ignored", cut)
		}
		wantSSID := ""
		if cut >= ssidEnd {
			wantSSID = "cut"
		}
		if c.ssid != wantSSID || !c.privacy {
			t.Fatalf("cut=%d: candidate %+v, want ssid %q privacy", cut, c, wantSSID)
		}
	}
}
