package net80211

import (
	"strings"
	"testing"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// An ESS tracks membership and per-station serving AP across a roam, and
// its handoff counter reflects the DS announcements that drop stale
// associations on the old AP.
func TestESSTracksRoam(t *testing.T) {
	w := newWorld(21, spectrum.NewLogDistance(2412*units.MHz, 3.5))
	sw := ether.NewSwitch(w.k, 10*sim.Microsecond)

	ess := NewESS("ess")
	ap1 := NewAP(w.k, w.dcf("ap1", geom.Pt(0, 0)), APConfig{SSID: "ess"})
	ap2 := NewAP(w.k, w.dcf("ap2", geom.Pt(120, 0)), APConfig{SSID: "ess"})
	ap1.AttachDS(sw)
	ap2.AttachDS(sw)
	ess.Add(ap1)
	ess.Add(ap2)
	if ess.ssid != "ess" || len(ess.aps) != 2 {
		t.Fatalf("ess = %q with %d APs", ess.ssid, len(ess.aps))
	}

	mob := geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 10}}
	sta := NewSTA(w.k, w.mobileDCF("sta", mob), STAConfig{
		SSID: "ess", RoamThreshold: -65, RoamHysteresis: 3,
	})

	w.k.RunUntil(sim.Time(2 * sim.Second))
	if got := ess.ServingAP(sta.Address()); got != ap1 {
		t.Fatalf("before the walk ServingAP = %v, want ap1", got)
	}
	if c1, c2 := associatedCount(ap1), associatedCount(ap2); c1 != 1 || c2 != 0 {
		t.Fatalf("associated counts before roam = %d, %d", c1, c2)
	}

	// Keep traffic flowing so post-roam uplink announces over the DS.
	hostAddr := w.alloc.Next()
	sw.AddPort(func(ether.Frame) {})
	w.k.Ticker(50*sim.Millisecond, "uplink", func() {
		if sta.Associated() {
			sta.Send(hostAddr, []byte("ping"))
		}
	})
	w.k.RunUntil(sim.Time(12 * sim.Second))

	if got := ess.ServingAP(sta.Address()); got != ap2 {
		t.Fatalf("after the walk ServingAP = %v, want ap2", got)
	}
	if c1, c2 := associatedCount(ap1), associatedCount(ap2); c1 != 0 || c2 != 1 {
		t.Fatalf("associated counts after roam = %d, %d (stale association not dropped)", c1, c2)
	}
	if ess.Handoffs() == 0 || ap1.Stats.Handoffs == 0 {
		t.Fatalf("DS announcement dropped no stale association (ess=%d ap1=%d)",
			ess.Handoffs(), ap1.Stats.Handoffs)
	}
	if ess.ServingAP(frame.MACAddr{0xde, 0xad}) != nil {
		t.Fatal("unknown address reports a serving AP")
	}
}

// Adding an AP whose SSID differs from the ESS's is a configuration bug
// and must panic rather than silently split the service set.
func TestESSAddWrongSSIDPanics(t *testing.T) {
	w := newWorld(22, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ess := NewESS("alpha")
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "beta"})
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted an AP with a mismatched SSID")
		}
	}()
	ess.Add(ap)
}

// eventLog keeps every trace event.
type eventLog []trace.Event

func (l *eventLog) Trace(ev trace.Event) { *l = append(*l, ev) }

// In an ESS every AP carries the one SSID, so an AP's management and
// power-save events name its radio: each association is traced by the AP
// that answered it.
func TestAPEventsNameTheAP(t *testing.T) {
	w := newWorld(23, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	var log eventLog
	ess := NewESS("city")
	var stas []frame.MACAddr
	for i, name := range []string{"ap1", "ap2"} {
		ap := NewAP(w.k, w.dcf(name, geom.Pt(float64(100*i), 0)), APConfig{SSID: "city"})
		ap.Tracer = &log
		ess.Add(ap)
		sta := frame.MACAddr{0x02, 0xee, 0, 0, 0, byte(i + 1)}
		stas = append(stas, sta)
		for _, f := range []*frame.Frame{
			mgmtFrame(frame.SubtypeAuth, ap.BSSID(), sta, ap.BSSID(),
				frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 1})),
			mgmtFrame(frame.SubtypeAssocReq, ap.BSSID(), sta, ap.BSSID(),
				frame.AppendAssocReq(nil, &frame.AssocReq{SSID: []byte("city"), Rates: ap.rates})),
			{Type: frame.TypeData, Subtype: frame.SubtypeNullData, ToDS: true, PwrMgmt: true,
				Addr1: ap.BSSID(), Addr2: sta, Addr3: ap.BSSID()},
		} {
			ap.receive(f, medium.RxInfo{})
		}
	}
	want := []string{"mgmt ap1 assoc " + stas[0].String(), "ps ap1 " + stas[0].String(),
		"mgmt ap2 assoc " + stas[1].String(), "ps ap2 " + stas[1].String()}
	if len(log) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(log), len(want), log)
	}
	for i, ev := range log {
		if got := string(ev.Kind) + " " + ev.Node + " " + ev.Detail; !strings.HasPrefix(got, want[i]) {
			t.Errorf("event %d: %q, want it to begin %q", i, got, want[i])
		}
	}
}
