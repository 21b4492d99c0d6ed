package net80211

import (
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// lastDetail keeps the detail of the last trace event: for an association,
// "assoc <addr> aid=<n> status=<n>".
type lastDetail struct{ s string }

func (l *lastDetail) Trace(ev trace.Event) { l.s = ev.Detail }

// aidBench drives one AP's association table by hand: no station radios,
// only the management frames an authenticated station would send.
type aidBench struct {
	t      *testing.T
	w      *world
	ap     *AP
	alloc  frame.AddrAllocator
	traced lastDetail
}

func newAIDBench(t *testing.T) *aidBench {
	b := &aidBench{t: t, w: newWorld(41, spectrum.FreeSpace{Freq: 2412 * units.MHz})}
	b.ap = NewAP(b.w.k, b.w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "aid"})
	b.ap.Tracer = &b.traced
	return b
}

// assoc authenticates and associates addr, through the AP's receive path,
// and returns the AID and status the AP answered.
func (b *aidBench) assoc(addr frame.MACAddr) (aid uint16, status string) {
	b.receive(addr, frame.SubtypeAuth, frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 1}))
	b.receive(addr, frame.SubtypeAssocReq, frame.AppendAssocReq(nil, &frame.AssocReq{SSID: []byte("aid"), Rates: b.ap.rates}))
	_, status, _ = strings.Cut(b.traced.s, "status=")
	return b.ap.stations[addr].aid, status
}

func (b *aidBench) disassoc(addr frame.MACAddr) {
	b.receive(addr, frame.SubtypeDisassoc, []byte{8, 0})
}

// receive hands the AP a management frame from addr.
func (b *aidBench) receive(addr frame.MACAddr, sub frame.Subtype, body []byte) {
	b.ap.receive(mgmtFrame(sub, b.ap.BSSID(), addr, b.ap.BSSID(), body), medium.RxInfo{})
}

// TestAIDsStayInRange: an AP hands out AIDs round robin inside 1..2007 and
// reuses freed ones, so stations that come and go forever never push a
// TIM past what a beacon's one-byte element length can carry.
func TestAIDsStayInRange(t *testing.T) {
	b := newAIDBench(t)
	stale := b.alloc.Next()
	if aid, status := b.assoc(stale); aid != 1 || status != "0" {
		t.Fatalf("first association: aid %d status %s, want 1 and 0", aid, status)
	}
	b.disassoc(stale)
	for i := 0; i < 2100; i++ {
		addr := b.alloc.Next()
		aid, status := b.assoc(addr)
		if want := uint16(1 + (i+1)%maxAID); aid != want || status != "0" {
			t.Fatalf("cycle %d: aid %d status %s, want %d and 0", i, aid, status, want)
		}
		b.disassoc(addr)
	}

	// A power-saving station on a recycled AID: the beacon carries its bit
	// and parses. A second disassociation from the station that held the
	// AID before leaves the new holder in place.
	ps := b.alloc.Next()
	aid, _ := b.assoc(ps)
	if aid != 2101%maxAID+1 {
		t.Fatalf("recycled aid %d, want %d", aid, 2101%maxAID+1)
	}
	old := b.alloc.Next()
	b.ap.stations[old] = &staEntry{addr: old, aid: aid, state: authenticated}
	b.disassoc(old)
	if e := b.ap.byAID[aid]; e == nil || e.addr != ps {
		t.Fatalf("aid %d no longer maps to its holder after a stale disassociation", aid)
	}
	e := b.ap.stations[ps]
	e.ps, e.psBuf = true, []*frame.Frame{{Type: frame.TypeData, Addr1: ps, Addr2: b.ap.BSSID()}}
	var tim frame.TIM
	beacons := 0
	listener := b.w.dcf("listener", geom.Pt(5, 0))
	listener.SetReceiver(func(f *frame.Frame, _ medium.RxInfo) {
		if f.Type != frame.TypeManagement || f.Subtype != frame.SubtypeBeacon {
			return
		}
		v, err := frame.ParseBeacon(f.Body)
		if err != nil {
			t.Fatalf("beacon %d: %v", beacons, err)
		}
		if err := frame.ParseTIMInto(&tim, v.TIM); err != nil {
			t.Fatalf("beacon %d TIM: %v", beacons, err)
		}
		beacons++
	})
	// The association responses queued above go unacknowledged; their
	// retries hold the MAC for about a second and a half.
	b.w.k.RunFor(3 * sim.Second)
	if beacons == 0 || len(tim.AIDs) != 1 || tim.AIDs[0] != aid {
		t.Fatalf("%d beacons, last TIM %v, want [%d]", beacons, tim.AIDs, aid)
	}
}

// TestAIDsExhausted: 2007 concurrent associations take every AID once; the
// 2008th station is refused with status 17 and holds none, and takes the
// one AID a leaving station frees.
func TestAIDsExhausted(t *testing.T) {
	b := newAIDBench(t)
	stas := make([]frame.MACAddr, maxAID)
	seen := make(map[uint16]bool)
	for i := range stas {
		stas[i] = b.alloc.Next()
		aid, status := b.assoc(stas[i])
		if aid < 1 || aid > maxAID || seen[aid] || status != "0" {
			t.Fatalf("association %d: aid %d (taken before: %v) status %s", i, aid, seen[aid], status)
		}
		seen[aid] = true
	}
	late := b.alloc.Next()
	if aid, status := b.assoc(late); aid != 0 || status != "17" || b.ap.Associated(late) {
		t.Fatalf("association 2008: aid %d status %s associated %v, want 0, 17, false", aid, status, b.ap.Associated(late))
	}
	if n := b.ap.Stats.Assocs; n != maxAID {
		t.Fatalf("Assocs = %d, want %d", n, maxAID)
	}
	b.disassoc(stas[41])
	if aid, status := b.assoc(late); aid != 42 || status != "0" {
		t.Fatalf("after AID 42 was freed: aid %d status %s, want 42 and 0", aid, status)
	}
}
