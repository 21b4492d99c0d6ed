package frame

import (
	"bytes"
	"testing"
)

// The management-body encoders (AppendBeacon, AppendAuth, AppendAssocReq,
// AppendAssocResp) feed the pooled TX bodies of the net80211 management
// plane. These tests pin the exact wire layout against literal bytes and
// the zero-allocation contract, on both the encode and the decode side,
// that makes beacon/probe/auth/assoc exchanges heap-free.

func TestAppendBeaconLayout(t *testing.T) {
	b := &Beacon{Timestamp: 0x0102030405060708, IntervalTU: 100, Capability: CapESS | CapPrivacy,
		SSID: "net", Rates: []byte{0x82, 0x04}, Channel: 6,
		TIM: &TIM{DTIMCount: 1, DTIMPeriod: 3, Multicast: true, AIDs: []uint16{17, 1}}}
	want := []byte{8, 7, 6, 5, 4, 3, 2, 1, 100, 0, 0x11, 0,
		IESSID, 3, 'n', 'e', 't', IESupportedRates, 2, 0x82, 0x04, IEDSParam, 1, 6,
		// The bitmap runs to the highest AID: 17 is bit 1 of its third byte.
		IETIM, 6, 1, 3, 0x01, 0x02, 0x00, 0x02}
	if got := AppendBeacon(nil, b); !bytes.Equal(got, want) {
		t.Fatalf("AppendBeacon = %x, want %x", got, want)
	}
	v, err := ParseBeacon(want)
	if err != nil {
		t.Fatal(err)
	}
	var tim TIM
	if err := ParseTIMInto(&tim, v.TIM); err != nil {
		t.Fatal(err)
	}
	if v.Timestamp != b.Timestamp || v.IntervalTU != b.IntervalTU || v.Capability != b.Capability ||
		string(v.SSID) != b.SSID || !bytes.Equal(v.Rates, b.Rates) || v.Channel != b.Channel ||
		tim.DTIMCount != 1 || tim.DTIMPeriod != 3 || !tim.Multicast ||
		len(tim.AIDs) != 2 || tim.AIDs[0] != 1 || tim.AIDs[1] != 17 {
		t.Fatalf("round trip lost fields: %+v, TIM %+v", v, tim)
	}
	// No buffered traffic is still one bitmap byte; no TIM ends at the DS
	// parameter element.
	b.TIM = &TIM{DTIMPeriod: 3}
	if got, want := AppendBeacon(nil, b), append(want[:24:24], IETIM, 4, 0, 3, 0, 0); !bytes.Equal(got, want) {
		t.Fatalf("idle-TIM AppendBeacon = %x, want %x", got, want)
	}
	b.TIM = nil
	if got := AppendBeacon(nil, b); !bytes.Equal(got, want[:24]) {
		t.Fatalf("TIM-less AppendBeacon = %x, want %x", got, want[:24])
	}
}

func TestAppendAuthLayout(t *testing.T) {
	a := &Auth{Algorithm: AuthAlgoSharedKey, SeqNum: 3, Status: StatusSuccess,
		Challenge: []byte{9, 8, 7}}
	want := []byte{1, 0, 3, 0, 0, 0, IEChallenge, 3, 9, 8, 7}
	if got := AppendAuth(nil, a); !bytes.Equal(got, want) {
		t.Fatalf("AppendAuth = %x, want %x", got, want)
	}
	parsed, err := ParseAuth(want)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Algorithm != a.Algorithm || parsed.SeqNum != a.SeqNum ||
		parsed.Status != a.Status || !bytes.Equal(parsed.Challenge, a.Challenge) {
		t.Fatalf("round trip lost fields: %+v", parsed)
	}
	// Without a challenge the body is the bare 6-byte header.
	bare := AppendAuth(nil, &Auth{Algorithm: AuthAlgoOpen, SeqNum: 2, Status: StatusAuthAlgoUnsupp})
	if want := []byte{0, 0, 2, 0, 13, 0}; !bytes.Equal(bare, want) {
		t.Fatalf("challengeless AppendAuth = %x, want %x", bare, want)
	}
}

func TestAppendAssocReqLayout(t *testing.T) {
	a := &AssocReq{Capability: CapESS, ListenIntv: 10, SSID: []byte("net"), Rates: []byte{0x82, 0x04}}
	want := []byte{1, 0, 10, 0, IESSID, 3, 'n', 'e', 't', IESupportedRates, 2, 0x82, 0x04}
	if got := AppendAssocReq(nil, a); !bytes.Equal(got, want) {
		t.Fatalf("AppendAssocReq = %x, want %x", got, want)
	}
	parsed, err := ParseAssocReq(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(parsed.SSID, a.SSID) || parsed.ListenIntv != a.ListenIntv || !bytes.Equal(parsed.Rates, a.Rates) {
		t.Fatalf("round trip lost fields: %+v", parsed)
	}
}

func TestAppendAssocRespLayout(t *testing.T) {
	a := &AssocResp{Capability: CapESS, Status: StatusSuccess, AID: 0x1234, Rates: []byte{0x96}}
	want := []byte{1, 0, 0, 0, 0x34, 0x12, IESupportedRates, 1, 0x96}
	if got := AppendAssocResp(nil, a); !bytes.Equal(got, want) {
		t.Fatalf("AppendAssocResp = %x, want %x", got, want)
	}
	parsed, err := ParseAssocResp(want)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.AID != a.AID || parsed.Status != a.Status || !bytes.Equal(parsed.Rates, a.Rates) {
		t.Fatalf("round trip lost fields: %+v", parsed)
	}
}

// Appending into a buffer with capacity must not touch the heap.
func TestAppendMgmtZeroAlloc(t *testing.T) {
	challenge := make([]byte, 128)
	auth := &Auth{Algorithm: AuthAlgoSharedKey, SeqNum: 2, Challenge: challenge}
	req := &AssocReq{Capability: CapESS, ListenIntv: 10, SSID: []byte("alloc-wall"), Rates: []byte{0x82, 0x84}}
	resp := &AssocResp{Capability: CapESS, AID: 7, Rates: []byte{0x82, 0x84}}
	buf := make([]byte, 0, 256)
	for name, appendBody := range map[string]func([]byte) []byte{
		"AppendAuth":      func(dst []byte) []byte { return AppendAuth(dst, auth) },
		"AppendAssocReq":  func(dst []byte) []byte { return AppendAssocReq(dst, req) },
		"AppendAssocResp": func(dst []byte) []byte { return AppendAssocResp(dst, resp) },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			buf = appendBody(buf[:0])
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v/op into a sized buffer, want 0", name, allocs)
		}
	}
}

// The decoders return views of the body and nothing else: receiving a
// management frame must not touch the heap either.
func TestParseMgmtZeroAlloc(t *testing.T) {
	beacon := AppendBeacon(nil, &Beacon{IntervalTU: 100, Capability: CapESS, SSID: "alloc-wall",
		Rates: []byte{0x82, 0x84}, Channel: 6, TIM: &TIM{DTIMPeriod: 3, AIDs: []uint16{1, 31}}})
	auth := AppendAuth(nil, &Auth{Algorithm: AuthAlgoSharedKey, SeqNum: 2, Challenge: make([]byte, 128)})
	req := AppendAssocReq(nil, &AssocReq{Capability: CapESS, SSID: []byte("alloc-wall"), Rates: []byte{0x82}})
	resp := AppendAssocResp(nil, &AssocResp{Capability: CapESS, AID: 7, Rates: []byte{0x82}})
	var sink int
	for name, parse := range map[string]func() error{
		"ParseBeacon":    func() error { v, err := ParseBeacon(beacon); sink += len(v.SSID) + len(v.TIM); return err },
		"ParseAuth":      func() error { v, err := ParseAuth(auth); sink += len(v.Challenge); return err },
		"ParseAssocReq":  func() error { v, err := ParseAssocReq(req); sink += len(v.SSID); return err },
		"ParseAssocResp": func() error { v, err := ParseAssocResp(resp); sink += len(v.Rates); return err },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := parse(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, allocs)
		}
	}
	if sink == 0 {
		t.Fatal("decoders returned empty views")
	}
}
