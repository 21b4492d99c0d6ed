package net80211

import (
	"maps"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/wep"
)

// Flag bits of a FuzzReceive input: the frame-control flags it sets, and
// the shape of the nodes it meets.
const (
	fzToDS = 1 << iota
	fzFromDS
	fzPwrMgmt
	fzMoreData
	fzProtected
	fzPowerSave // the station dozes between beacons
	fzDozing    // a sender in state 3 dozes at the AP with a frame buffered
	fzKeyed     // both nodes hold the WEP key
)

// fuzzStates are the start states, scanning standing for no entry at the AP.
var fuzzStates = [...]assocState{scanning, unauthenticated, authenticated, associated}

// FuzzReceive feeds one arbitrary frame — type, subtype, sender, flags,
// Duration, body — into an AP and into a station, each starting from every
// state, and holds both to the state table: nothing panics; an AP entry
// moves only 1→2 by Auth, 2→3 by (re)association request and to 1 by
// Deauth or Disassoc, and keeps AID, PS state and buffer consistent with its
// state; a class-3 frame from a sender not in state 3 changes no AP counter
// and no PS state and queues nothing; a probe request changes nothing and
// gets no reply, since scanning is passive; a data frame sealed under a key
// slot other than 0 is relayed nowhere; a station moves only one state up on
// the reply it awaits or back to scanning, and a frame not from its target
// AP, or a management frame its state does not await — beacons apart —
// changes nothing. Plain go test runs the seeds.
func FuzzReceive(f *testing.F) {
	key := wallKey()
	bodies := fuzzBodies(key)
	for start := range fuzzStates {
		for _, s := range []struct {
			typ  frame.Type
			sub  frame.Subtype
			from uint8
			fl   uint8
			dur  uint16
			body []byte
		}{
			{frame.TypeManagement, frame.SubtypeAuth, 0, 0, 0, bodies["auth1"]},
			{frame.TypeManagement, frame.SubtypeAuth, 0, fzKeyed, 0, bodies["shared1"]},
			{frame.TypeManagement, frame.SubtypeAssocReq, 0, 0, 0, bodies["assocReq"]},
			{frame.TypeManagement, frame.SubtypeReassocReq, 2, 0, 0, bodies["assocReq"]},
			{frame.TypeManagement, frame.SubtypeDeauth, 1, 0, 0, []byte{1, 0}},
			{frame.TypeManagement, frame.SubtypeDisassoc, 0, 0, 0, []byte{8, 0}},
			{frame.TypeManagement, frame.SubtypeProbeReq, 2, 0, 0, nil},
			{frame.TypeManagement, frame.SubtypeProbeReq, 0, 0, 0, bodies["probeReq"]},
			{frame.TypeManagement, frame.SubtypeBeacon, 0, fzPowerSave, 0, bodies["beacon"]},
			{frame.TypeManagement, frame.SubtypeAuth, 0, 0, 0, bodies["auth2"]},
			{frame.TypeManagement, frame.SubtypeAuth, 0, fzKeyed, 0, bodies["shared2"]},
			{frame.TypeManagement, frame.SubtypeAuth, 0, 0, 0, bodies["authRefused"]},
			{frame.TypeManagement, frame.SubtypeAssocResp, 0, fzPowerSave, 0, bodies["assocResp"]},
			{frame.TypeData, frame.SubtypeData, 0, fzToDS, 0, bodies["snap"]},
			{frame.TypeData, frame.SubtypeData, 3, fzToDS | fzDozing, 0, bodies["snap"]}, // S to P: a relay
			{frame.TypeData, frame.SubtypeData, 0, fzToDS | fzProtected | fzKeyed, 0, bodies["sealed"]},
			{frame.TypeData, frame.SubtypeData, 0, fzFromDS | fzProtected | fzKeyed | fzPowerSave, 0, bodies["sealed"]},
			{frame.TypeData, frame.SubtypeData, 3, fzToDS | fzProtected | fzKeyed, 0, bodies["foreignSlot"]}, // S to P under slot 2
			{frame.TypeData, frame.SubtypeData, 1, fzFromDS | fzMoreData | fzPowerSave, 0, bodies["snap"]},
			{frame.TypeData, frame.SubtypeNullData, 0, fzToDS | fzPwrMgmt, 0, nil},
			{frame.TypeData, frame.SubtypeNullData, 0, fzToDS | fzDozing, 0, nil},
			{frame.TypeControl, frame.SubtypePSPoll, 0, fzDozing, 0xc002, nil},
			{frame.TypeControl, frame.SubtypePSPoll, 2, 0, 0xc001, nil},
		} {
			f.Add(uint8(start), uint8(s.typ), uint8(s.sub), s.from, s.fl, s.dur, s.body)
		}
	}
	f.Fuzz(func(t *testing.T, start, typ, sub, from, flags uint8, dur uint16, body []byte) {
		fr := frame.Frame{
			Type: frame.Type(typ % 3), Subtype: frame.Subtype(sub % 16),
			ToDS: flags&fzToDS != 0, FromDS: flags&fzFromDS != 0,
			PwrMgmt: flags&fzPwrMgmt != 0, MoreData: flags&fzMoreData != 0,
			Protected: flags&fzProtected != 0,
			Duration:  dur, Body: body,
		}
		var k wep.Key
		if flags&fzKeyed != 0 {
			k = key
		}
		st := fuzzStates[start%4]
		fuzzAP(t, fr, k, st, from, flags&fzDozing != 0)
		fuzzSTA(t, fr, k, st, from, flags&fzPowerSave != 0)
	})
}

// fuzzBodies are the well-formed bodies the seeds carry; "sealed" is a SNAP
// payload sealed under key, "foreignSlot" the same under key slot 2.
func fuzzBodies(key wep.Key) map[string][]byte {
	c := bodyCodec{key: key}
	sealed, _ := c.data(frame.Frame{}, []byte("sealed payload"))
	foreign, _ := wep.SealTo(nil, key, wep.IV{9, 9, 9}, foreignKeyID,
		frame.AppendSNAP(nil, EtherTypePayload, []byte("sealed payload")))
	return map[string][]byte{
		"auth1":       frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 1}),
		"shared1":     frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 1}),
		"auth2":       frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 2}),
		"shared2":     frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 2, Challenge: make([]byte, 128)}),
		"authRefused": frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 2, Status: frame.StatusAuthAlgoUnsupp}),
		"assocReq":    frame.AppendAssocReq(nil, &frame.AssocReq{SSID: []byte("fuzz"), Rates: []byte{0x82}}),
		"assocResp":   frame.AppendAssocResp(nil, &frame.AssocResp{Capability: frame.CapESS, AID: 1, Rates: []byte{0x82}}),
		"beacon":      frame.AppendBeacon(nil, &frame.Beacon{IntervalTU: 100, SSID: "fuzz", Channel: 1, TIM: &frame.TIM{DTIMPeriod: 1, AIDs: []uint16{1}}}),
		"snap":        frame.AppendSNAP(nil, EtherTypePayload, []byte("payload")),
		"sealed":      sealed.Body,
		"foreignSlot": foreign,
		"probeReq":    frame.AppendIE(frame.AppendIE(nil, frame.IESSID, []byte("fuzz")), frame.IESupportedRates, []byte{0x82}),
	}
}

// apView is what one frame may change at an AP.
type apView struct {
	state  map[frame.MACAddr]assocState
	ps     map[frame.MACAddr]bool
	held   map[frame.MACAddr]int
	stats  APStats
	queued uint64
}

func viewAP(ap *AP, addrs []frame.MACAddr) apView {
	v := apView{state: map[frame.MACAddr]assocState{}, ps: map[frame.MACAddr]bool{},
		held: map[frame.MACAddr]int{}, stats: ap.Stats, queued: ap.dcf.Stats().MSDUQueued}
	for _, a := range addrs {
		v.state[a] = unauthenticated // no entry: state 1
		if e := ap.stations[a]; e != nil {
			v.state[a], v.ps[a], v.held[a] = e.state, e.ps, len(e.psBuf)
		}
	}
	return v
}

// fuzzAP delivers fr to an AP from the sender from picks: S, brought to
// state st, P, a dozing state-3 peer with a frame buffered, or U, unknown.
func fuzzAP(t *testing.T, fr frame.Frame, key wep.Key, st assocState, from uint8, dozing bool) {
	w := newWorld(61, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "fuzz", WEPKey: key})
	bssid := ap.BSSID()
	peer, sender, unknown := frame.MACAddr{2, 0xf, 0, 0, 0, 1}, frame.MACAddr{2, 0xf, 0, 0, 0, 2}, frame.MACAddr{2, 0xf, 0, 0, 0, 3}
	rx := func(f *frame.Frame) { ap.receive(f, medium.RxInfo{}) }
	mgmt := func(a frame.MACAddr, sub frame.Subtype, body []byte) {
		rx(mgmtFrame(sub, bssid, a, bssid, body))
	}
	auth := func(a frame.MACAddr) {
		if len(key) == 0 {
			mgmt(a, frame.SubtypeAuth, frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoOpen, SeqNum: 1}))
			return
		}
		mgmt(a, frame.SubtypeAuth, frame.AppendAuth(nil, &frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 1}))
		c := bodyCodec{key: key}
		seq3 := frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 3, Challenge: ap.stations[a].challenge}
		f, _ := c.seal(*mgmtFrame(frame.SubtypeAuth, bssid, a, bssid, nil), frame.AppendAuth(c.clear(), &seq3))
		rx(&f)
	}
	toState := func(a frame.MACAddr, st assocState) {
		if st >= unauthenticated {
			auth(a)
		}
		switch st {
		case unauthenticated:
			mgmt(a, frame.SubtypeDeauth, []byte{1, 0})
		case associated:
			mgmt(a, frame.SubtypeAssocReq, frame.AppendAssocReq(nil, &frame.AssocReq{SSID: []byte("fuzz")}))
		}
		if ap.stations[a] != nil && ap.stations[a].state != max(st, unauthenticated) {
			t.Fatalf("%v brought to state %d, want %d", a, ap.stations[a].state, st)
		}
	}
	doze := func(a frame.MACAddr) {
		rx(&frame.Frame{Type: frame.TypeData, Subtype: frame.SubtypeNullData, ToDS: true, PwrMgmt: true,
			Addr1: bssid, Addr2: a, Addr3: bssid})
		ap.Send(a, []byte("held"))
	}
	toState(peer, associated)
	doze(peer)
	toState(sender, st)
	if st == associated && dozing {
		doze(sender)
	}

	addrs := []frame.MACAddr{sender, peer, unknown}
	fr.Addr1, fr.Addr2 = bssid, addrs[from%3]
	fr.Addr3 = [...]frame.MACAddr{bssid, peer, sender, frame.Broadcast}[from/3%4]
	before := viewAP(ap, addrs)
	rx(&fr)
	after := viewAP(ap, addrs)

	for _, e := range ap.stations {
		in3 := e.state == associated
		if e.state < unauthenticated || e.state > associated || (e.aid != 0) != in3 ||
			in3 && ap.byAID[e.aid] != e || e.ps && !in3 || len(e.psBuf) > 0 && !e.ps {
			t.Fatalf("entry %v: state %d aid %d (held by %p, entry %p) ps %v, %d buffered",
				e.addr, e.state, e.aid, ap.byAID[e.aid], e, e.ps, len(e.psBuf))
		}
	}
	if len(ap.byAID) != associatedCount(ap) {
		t.Fatalf("%d AIDs held, %d stations associated", len(ap.byAID), associatedCount(ap))
	}
	mg := fr.Type == frame.TypeManagement
	for _, a := range addrs {
		b, n := before.state[a], after.state[a]
		legal := b == n ||
			a == fr.Addr2 && mg && (b == unauthenticated && n == authenticated && fr.Subtype == frame.SubtypeAuth ||
				b == authenticated && n == associated && (fr.Subtype == frame.SubtypeAssocReq || fr.Subtype == frame.SubtypeReassocReq) ||
				n == unauthenticated && (fr.Subtype == frame.SubtypeDeauth || fr.Subtype == frame.SubtypeDisassoc))
		if !legal {
			t.Fatalf("%s from %v moved %v from state %d to %d", frame.Name(fr.Type, fr.Subtype), fr.Addr2, a, b, n)
		}
	}
	unchanged := after.stats == before.stats && after.queued == before.queued && maps.Equal(after.state, before.state) &&
		maps.Equal(after.ps, before.ps) && maps.Equal(after.held, before.held)
	if mg && fr.Subtype == frame.SubtypeProbeReq && !unchanged {
		t.Fatalf("probe request from %v in state %d had an effect: %+v, was %+v", fr.Addr2, before.state[fr.Addr2], after, before)
	}
	if fr.Type == frame.TypeData && fr.Protected && len(fr.Body) > 3 && fr.Body[3]>>6 != 0 &&
		(after.stats.Relayed != before.stats.Relayed || after.stats.ToDS != before.stats.ToDS) {
		t.Fatalf("frame sealed under key slot %d was relayed: %+v, was %+v", fr.Body[3]>>6, after.stats, before.stats)
	}
	if frameClass(&fr) == associated && before.state[fr.Addr2] != associated {
		if after.stats != before.stats || after.queued != before.queued ||
			!maps.Equal(after.ps, before.ps) || !maps.Equal(after.held, before.held) {
			t.Fatalf("class-3 %s from %v in state %d had an effect: %+v, was %+v",
				frame.Name(fr.Type, fr.Subtype), fr.Addr2, before.state[fr.Addr2], after, before)
		}
	}
}

// fuzzSTA delivers fr to a station in state st toward a target AP B, from
// B or, when from picks it, from another AP X.
func fuzzSTA(t *testing.T, fr frame.Frame, key wep.Key, st assocState, from uint8, powerSave bool) {
	w := newWorld(62, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(0, 0)), STAConfig{SSID: "fuzz", WEPKey: key, PowerSave: powerSave})
	target, other := frame.MACAddr{2, 0xb, 0, 0, 0, 1}, frame.MACAddr{2, 0xb, 0, 0, 0, 2}
	sta.state, sta.bssid = st, target
	if st == associated {
		sta.aid = 1
	}
	fr.Addr1, fr.Addr2, fr.Addr3 = sta.Address(), target, target
	if from%3 == 2 {
		fr.Addr2, fr.Addr3 = other, other
	}
	stats := sta.Stats
	sta.receive(&fr, medium.RxInfo{RSSI: -50})

	n := sta.state
	if fr.Type == frame.TypeManagement && fr.Subtype == frame.SubtypeBeacon {
		if n != st {
			t.Fatalf("%s moved the station from state %d to %d", frame.Name(fr.Type, fr.Subtype), st, n)
		}
		return
	}
	// A management frame is read only in the state that awaits it.
	awaits := map[frame.Subtype]assocState{
		frame.SubtypeAuth: unauthenticated, frame.SubtypeAssocResp: authenticated, frame.SubtypeReassocResp: authenticated,
		frame.SubtypeDeauth: associated, frame.SubtypeDisassoc: associated,
	}
	aw, ok := awaits[fr.Subtype]
	unread := fr.Type == frame.TypeManagement && (!ok || aw != st)
	if fr.Addr2 != target || frameClass(&fr) > st || unread {
		if n != st || sta.Stats != stats {
			t.Fatalf("%s from %v in state %d had an effect: state %d, %+v, was %+v",
				frame.Name(fr.Type, fr.Subtype), fr.Addr2, st, n, sta.Stats, stats)
		}
		return
	}
	if n != st && n != scanning && !(n == st+1 && (st == unauthenticated || st == authenticated)) {
		t.Fatalf("%s moved the station from state %d to %d", frame.Name(fr.Type, fr.Subtype), st, n)
	}
}
