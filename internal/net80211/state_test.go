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
	"repro/internal/units"
)

// TestFrameClass: every (type, subtype) frame.Name names has the class
// 802.11-2007 §11.3.3 gives it, as the least state that admits it.
func TestFrameClass(t *testing.T) {
	want := map[string]assocState{
		"assoc-req": authenticated, "assoc-resp": authenticated,
		"reassoc-req": authenticated, "reassoc-resp": authenticated,
		"disassoc":  authenticated,
		"probe-req": unauthenticated, "probe-resp": unauthenticated,
		"beacon": unauthenticated, "auth": unauthenticated, "deauth": unauthenticated,
		"rts": unauthenticated, "cts": unauthenticated, "ack": unauthenticated,
		"ps-poll": associated, "data": associated, "null": associated,
	}
	named := 0
	for typ := frame.TypeManagement; typ <= frame.TypeData; typ++ {
		for sub := frame.Subtype(0); sub < 16; sub++ {
			name := frame.Name(typ, sub)
			if strings.Contains(name, "/") {
				continue // unnamed
			}
			named++
			w, ok := want[name]
			if !ok {
				t.Errorf("%s: no class in the table", name)
				continue
			}
			if got := frameClass(&frame.Frame{Type: typ, Subtype: sub}); got != w {
				t.Errorf("frameClass(%s) = %d, want %d", name, got, w)
			}
		}
	}
	if named != len(want) {
		t.Errorf("frame.Name names %d (type, subtype) pairs, the table holds %d", named, len(want))
	}
}

// cell is one AP driven by hand through its receive path: frames from
// stations that have no radio, each built as a station would send it.
type cell struct {
	w         *world
	ap        *AP
	delivered int // payloads addressed to the AP itself
}

func newCell(t testing.TB, seed uint64) *cell {
	c := &cell{w: newWorld(seed, spectrum.FreeSpace{Freq: 2412 * units.MHz})}
	c.ap = NewAP(c.w.k, c.w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "cell"})
	c.ap.OnDeliver = func(_, _ frame.MACAddr, _ []byte) { c.delivered++ }
	return c
}

func (c *cell) mgmt(from frame.MACAddr, sub frame.Subtype, body []byte) {
	c.ap.receive(mgmtFrame(sub, c.ap.BSSID(), from, c.ap.BSSID(), body), medium.RxInfo{})
}

func (c *cell) auth(from frame.MACAddr) {
	c.mgmt(from, frame.SubtypeAuth, frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 1}))
}

func (c *cell) assoc(from frame.MACAddr) {
	c.mgmt(from, frame.SubtypeAssocReq, frame.AppendAssocReq(nil, &frame.AssocReq{SSID: []byte("cell"), Rates: c.ap.rates}))
}

func (c *cell) deauth(from frame.MACAddr) { c.mgmt(from, frame.SubtypeDeauth, []byte{1, 0}) }

// toState brings from to state st (scanning stands for no entry at all).
func (c *cell) toState(from frame.MACAddr, st assocState) {
	switch st {
	case unauthenticated:
		c.auth(from)
		c.deauth(from)
	case authenticated:
		c.auth(from)
	case associated:
		c.auth(from)
		c.assoc(from)
	}
}

// data hands the AP a ToDS data frame from a station to dst.
func (c *cell) data(from, dst frame.MACAddr, pwrMgmt bool, payload string) {
	c.ap.receive(&frame.Frame{Type: frame.TypeData, Subtype: frame.SubtypeData, ToDS: true, PwrMgmt: pwrMgmt,
		Addr1: c.ap.BSSID(), Addr2: from, Addr3: dst,
		Body: frame.AppendSNAP(nil, EtherTypePayload, []byte(payload))}, medium.RxInfo{})
}

func (c *cell) null(from frame.MACAddr, pwrMgmt bool) {
	c.ap.receive(&frame.Frame{Type: frame.TypeData, Subtype: frame.SubtypeNullData, ToDS: true, PwrMgmt: pwrMgmt,
		Addr1: c.ap.BSSID(), Addr2: from, Addr3: c.ap.BSSID()}, medium.RxInfo{})
}

func (c *cell) psPoll(from frame.MACAddr, aid uint16) {
	c.ap.receive(&frame.Frame{Type: frame.TypeControl, Subtype: frame.SubtypePSPoll, Addr1: c.ap.BSSID(), Addr2: from, Duration: aid | 0xc000}, medium.RxInfo{})
}

// TestAPClass3OnlyFromState3 is the AP's half of the table: data, null
// data and PS-Poll have an effect — a delivery, a relay, a PS transition,
// a buffered frame delivered — from a sender in state 3, and none from one
// unknown or in state 1 or 2. A dozing peer in state 3 holds a buffered
// frame throughout, and a PS-Poll from anyone else names its AID.
func TestAPClass3OnlyFromState3(t *testing.T) {
	type outcome struct {
		stats     APStats
		delivered int
		ps        bool // the sender's
		peerHeld  int
	}
	kinds := []struct {
		name string
		send func(c *cell, from, peer frame.MACAddr, aid uint16)
		want func(o *outcome) // the effect in state 3
	}{
		{"data to the AP",
			func(c *cell, from, _ frame.MACAddr, _ uint16) { c.data(from, c.ap.BSSID(), false, "up") },
			func(o *outcome) { o.delivered++ }},
		{"data to the peer",
			func(c *cell, from, peer frame.MACAddr, _ uint16) { c.data(from, peer, false, "relay") },
			func(o *outcome) { o.stats.Relayed++; o.stats.PSBuffered++; o.peerHeld++ }},
		{"null data dozing",
			func(c *cell, from, _ frame.MACAddr, _ uint16) { c.null(from, true) },
			func(o *outcome) { o.ps = true }},
		{"PS-Poll",
			func(c *cell, from, _ frame.MACAddr, aid uint16) { c.psPoll(from, aid) },
			func(o *outcome) { o.stats.PSDelivered++ }},
	}
	for _, st := range []assocState{scanning, unauthenticated, authenticated, associated} {
		for _, k := range kinds {
			c := newCell(t, 51)
			var alloc frame.AddrAllocator
			alloc.Next()
			peer, from := alloc.Next(), alloc.Next()
			c.toState(peer, associated)
			c.null(peer, true)
			c.ap.Send(peer, []byte("held"))
			c.toState(from, st)
			aid := c.ap.stations[peer].aid
			if st == associated {
				aid = c.ap.stations[from].aid
				if k.name == "PS-Poll" {
					c.null(from, true)
					c.ap.Send(from, []byte("held"))
				}
			}
			observe := func() outcome {
				o := outcome{stats: c.ap.Stats, delivered: c.delivered, peerHeld: len(c.ap.stations[peer].psBuf)}
				if e := c.ap.stations[from]; e != nil {
					o.ps = e.ps
				}
				return o
			}
			want := observe()
			if st == associated {
				k.want(&want)
			}
			k.send(c, from, peer, aid)
			if got := observe(); got != want {
				t.Errorf("state %d, %s: %+v, want %+v", st, k.name, got, want)
			}
		}
	}
}

// TestAssocReqFromState1Refused pins the class-2 frame the AP's filter lets
// through from state 1: an association request — here after a
// deauthentication, as a handoff leaves a station in roaming-wave — is
// answered with status 1, associates nothing and takes no AID.
func TestAssocReqFromState1Refused(t *testing.T) {
	c := newCell(t, 52)
	var traced lastDetail
	c.ap.Tracer = &traced
	var alloc frame.AddrAllocator
	alloc.Next()
	held, sta, unknown := alloc.Next(), alloc.Next(), alloc.Next()
	c.toState(held, associated)
	c.toState(sta, associated)
	c.deauth(sta)
	for _, from := range []frame.MACAddr{sta, unknown} {
		assocs := c.ap.Stats.Assocs
		c.assoc(from)
		e := c.ap.stations[from]
		if !strings.HasSuffix(traced.s, " aid=0 status=1") || e.state != unauthenticated || e.aid != 0 {
			t.Errorf("%v: answered %q, entry in state %d with aid %d", from, traced.s, e.state, e.aid)
		}
		if c.ap.Stats.Assocs != assocs || associatedCount(c.ap) != 1 || len(c.ap.byAID) != 1 {
			t.Errorf("%v: %d associations, %d associated, %d AIDs held", from, c.ap.Stats.Assocs, associatedCount(c.ap), len(c.ap.byAID))
		}
	}
}

// TestLeaveDropsPSBuffer: a dozing station that leaves takes nothing held
// for it into its next association. It deauthenticates with two frames
// buffered, re-authenticates, re-associates, wakes and polls: only what was
// sent after it came back reaches its radio, and the two are counted
// dropped.
func TestLeaveDropsPSBuffer(t *testing.T) {
	c := newCell(t, 53)
	radio := c.w.dcf("sta", geom.Pt(10, 0))
	sta := radio.Address()
	var got []string
	radio.SetReceiver(func(f *frame.Frame, _ medium.RxInfo) {
		if f.Type == frame.TypeData {
			if _, p, err := frame.DecapSNAP(f.Body); err == nil {
				got = append(got, string(p))
			}
		}
	})
	c.toState(sta, associated)
	c.null(sta, true)
	for _, p := range []string{"old-1", "old-2"} {
		if !c.ap.Send(sta, []byte(p)) {
			t.Fatalf("send %q refused", p)
		}
	}
	c.deauth(sta)
	c.toState(sta, associated)
	c.null(sta, false)
	c.psPoll(sta, c.ap.stations[sta].aid)
	c.ap.Send(sta, []byte("new"))
	c.w.k.RunFor(sim.Second)
	if len(got) != 1 || got[0] != "new" {
		t.Errorf("station received %q, want only \"new\"", got)
	}
	if s := c.ap.Stats; s.PSDropped != 2 || s.PSDelivered != 0 {
		t.Errorf("PSDropped %d PSDelivered %d, want 2 and 0", s.PSDropped, s.PSDelivered)
	}
}

// TestDropStationCountsPSBuffer: an ESS handoff that drops a dozing station
// counts what was buffered for it, as a deauthentication does.
func TestDropStationCountsPSBuffer(t *testing.T) {
	c := newCell(t, 54)
	var alloc frame.AddrAllocator
	alloc.Next()
	sta := alloc.Next()
	c.toState(sta, associated)
	c.null(sta, true)
	c.ap.Send(sta, []byte("held"))
	c.ap.fromDS(ether.Frame{Dst: frame.Broadcast, Src: sta}) // sta associated at another AP
	if e := c.ap.stations[sta]; e.state != unauthenticated || e.ps || e.psBuf != nil || e.aid != 0 {
		t.Errorf("dropped station left in state %d, aid %d, ps %v, %d buffered", e.state, e.aid, e.ps, len(e.psBuf))
	}
	if s := c.ap.Stats; s.Handoffs != 1 || s.PSDropped != 1 {
		t.Errorf("Handoffs %d PSDropped %d, want 1 and 1", s.Handoffs, s.PSDropped)
	}
}
