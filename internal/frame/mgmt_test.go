package frame

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestBeaconRoundTrip(t *testing.T) {
	b := &Beacon{
		Timestamp:  0x0123456789abcdef,
		IntervalTU: 100,
		Capability: CapESS | CapPrivacy,
		SSID:       "testnet",
		Rates:      []byte{RateByte(2, true), RateByte(22, false)},
		Channel:    6,
	}
	got, err := ParseBeacon(AppendBeacon(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp != b.Timestamp {
		t.Errorf("timestamp = %#x", got.Timestamp)
	}
	if got.IntervalTU != 100 || got.Capability != (CapESS|CapPrivacy) {
		t.Errorf("interval/cap = %d/%#x", got.IntervalTU, got.Capability)
	}
	if string(got.SSID) != "testnet" {
		t.Errorf("ssid = %q", got.SSID)
	}
	if got.Channel != 6 {
		t.Errorf("channel = %d", got.Channel)
	}
	if !bytes.Equal(got.Rates, b.Rates) {
		t.Errorf("rates = %v", got.Rates)
	}
	if got.TIM != nil {
		t.Error("unexpected TIM")
	}
}

func TestBeaconWithTIM(t *testing.T) {
	b := &Beacon{
		IntervalTU: 100,
		SSID:       "ps",
		Rates:      []byte{RateByte(2, true)},
		Channel:    1,
		TIM: &TIM{
			DTIMCount:  1,
			DTIMPeriod: 3,
			Multicast:  true,
			AIDs:       []uint16{1, 5, 17},
		},
	}
	got, err := ParseBeacon(AppendBeacon(nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if got.TIM == nil {
		t.Fatal("TIM lost")
	}
	var tim TIM
	if err := ParseTIMInto(&tim, got.TIM); err != nil {
		t.Fatal(err)
	}
	if tim.DTIMCount != 1 || tim.DTIMPeriod != 3 || !tim.Multicast {
		t.Errorf("TIM header: %+v", tim)
	}
	for _, aid := range []uint16{1, 5, 17} {
		if !tim.HasAID(aid) {
			t.Errorf("TIM missing AID %d", aid)
		}
	}
	if tim.HasAID(2) {
		t.Error("TIM has spurious AID 2")
	}
	var nilTIM *TIM
	if nilTIM.HasAID(1) {
		t.Error("nil TIM claims AIDs")
	}
}

func TestTIMPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(aidsRaw []uint16, count, period uint8, mc bool) bool {
		aids := make([]uint16, 0, len(aidsRaw))
		seen := map[uint16]bool{}
		for _, a := range aidsRaw {
			a %= 256 // keep bitmaps small
			if a == 0 || seen[a] {
				continue // AID 0 is the multicast bit position
			}
			seen[a] = true
			aids = append(aids, a)
		}
		tim := &TIM{DTIMCount: count, DTIMPeriod: period, Multicast: mc, AIDs: aids}
		var got TIM
		if err := ParseTIMInto(&got, tim.appendBody(nil)); err != nil {
			return false
		}
		if got.Multicast != mc {
			return false
		}
		for _, a := range aids {
			if !got.HasAID(a) {
				return false
			}
		}
		// No spurious AIDs either.
		for _, a := range got.AIDs {
			if a != 0 && !seen[a] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAuthRoundTrip(t *testing.T) {
	a := &Auth{Algorithm: AuthAlgoSharedKey, SeqNum: 2, Status: StatusSuccess, Challenge: []byte("challenge-text-128")}
	got, err := ParseAuth(AppendAuth(nil, a))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != AuthAlgoSharedKey || got.SeqNum != 2 || got.Status != StatusSuccess {
		t.Errorf("auth fields: %+v", got)
	}
	if !bytes.Equal(got.Challenge, a.Challenge) {
		t.Errorf("challenge = %q", got.Challenge)
	}
	// Without challenge.
	a2 := &Auth{Algorithm: AuthAlgoOpen, SeqNum: 1}
	got2, err := ParseAuth(AppendAuth(nil, a2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2.Challenge) != 0 {
		t.Error("spurious challenge")
	}
}

func TestAssocRoundTrip(t *testing.T) {
	req := &AssocReq{Capability: CapESS, ListenIntv: 10, SSID: []byte("net"), Rates: []byte{0x82, 0x84}}
	gotReq, err := ParseAssocReq(AppendAssocReq(nil, req))
	if err != nil {
		t.Fatal(err)
	}
	if string(gotReq.SSID) != "net" || gotReq.ListenIntv != 10 || !bytes.Equal(gotReq.Rates, req.Rates) {
		t.Errorf("assoc req: %+v", gotReq)
	}

	resp := &AssocResp{Capability: CapESS, Status: StatusSuccess, AID: 3, Rates: []byte{0x82}}
	gotResp, err := ParseAssocResp(AppendAssocResp(nil, resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotResp.AID != 3 || gotResp.Status != StatusSuccess {
		t.Errorf("assoc resp: %+v", gotResp)
	}
}

func TestIEParsing(t *testing.T) {
	raw := AppendIE(AppendIE(nil, IESSID, []byte("abc")), IEDSParam, []byte{11})
	var ids []uint8
	if err := ForEachIE(raw, func(id uint8, _ []byte) bool {
		ids = append(ids, id)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != IESSID || ids[1] != IEDSParam {
		t.Fatalf("walked elements %v", ids)
	}
	if d, ok := firstIE(raw, IESSID); !ok || string(d) != "abc" {
		t.Error("SSID IE lost")
	}
	if _, ok := firstIE(raw, IETIM); ok {
		t.Error("phantom TIM IE")
	}
	// Truncated IEs must error, not panic.
	if _, err := countIEs([]byte{0, 5, 1}); err == nil {
		t.Error("truncated IE accepted")
	}
	if _, err := countIEs([]byte{0}); err == nil {
		t.Error("lone ID byte accepted")
	}
	// A repeated element: the first occurrence counts, in firstIE and in
	// every body decoder alike.
	twice := AppendIE(AppendIE(nil, IESSID, []byte("first")), IESSID, []byte("second"))
	if d, _ := firstIE(twice, IESSID); string(d) != "first" {
		t.Errorf("firstIE on a repeated element = %q", d)
	}
	v, err := ParseBeacon(append(make([]byte, 12), twice...))
	if err != nil || string(v.SSID) != "first" {
		t.Errorf("ParseBeacon on a repeated element = %q, %v", v.SSID, err)
	}
}

func TestRateByte(t *testing.T) {
	if b := RateByte(11, true); b != 0x8b { // 5.5 Mbit/s basic
		t.Errorf("RateByte(11, basic) = %#x, want 0x8b", b)
	}
	if b := RateByte(108, false); b != 0x6c { // 54 Mbit/s
		t.Errorf("RateByte(108) = %#x, want 0x6c", b)
	}
}

func TestMgmtFrameInsideMPDU(t *testing.T) {
	beacon := &Beacon{IntervalTU: 100, SSID: "x", Rates: []byte{0x82}, Channel: 1}
	f := mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB, AppendBeacon(nil, beacon))
	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != TypeManagement || got.Subtype != SubtypeBeacon {
		t.Fatalf("mgmt frame type lost: %v/%v", got.Type, got.Subtype)
	}
	parsed, err := ParseBeacon(got.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(parsed.SSID) != "x" {
		t.Errorf("beacon ssid through MPDU = %q", parsed.SSID)
	}
}
