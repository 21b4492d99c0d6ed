package frame

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	addrA = MACAddr{0x02, 0, 0, 0, 0, 0x01}
	addrB = MACAddr{0x02, 0, 0, 0, 0, 0x02}
	addrC = MACAddr{0x02, 0, 0, 0, 0, 0x03}
	addrD = MACAddr{0x02, 0, 0, 0, 0, 0x04}
)

// decode is UnmarshalInto for tests that want the frame by value; the body
// is a view of wire.
func decode(wire []byte) (Frame, error) {
	var f Frame
	err := UnmarshalInto(&f, wire)
	return f, err
}

// Control and management frames for tests; the MAC and net80211 build
// theirs as literals.
func rtsFrame(ra, ta MACAddr, dur uint16) *Frame {
	return &Frame{Type: TypeControl, Subtype: SubtypeRTS, Addr1: ra, Addr2: ta, Duration: dur}
}

func ctsFrame(ra MACAddr, dur uint16) *Frame {
	return &Frame{Type: TypeControl, Subtype: SubtypeCTS, Addr1: ra, Duration: dur}
}

func ackFrame(ra MACAddr, dur uint16) *Frame {
	return &Frame{Type: TypeControl, Subtype: SubtypeACK, Addr1: ra, Duration: dur}
}

// psPollFrame carries the association ID in Duration with the two high bits
// set, per the standard.
func psPollFrame(bssid, ta MACAddr, aid uint16) *Frame {
	return &Frame{Type: TypeControl, Subtype: SubtypePSPoll, Addr1: bssid, Addr2: ta, Duration: aid | 0xc000}
}

func mgmtFrame(sub Subtype, ra, ta, bssid MACAddr, body []byte) *Frame {
	return &Frame{Type: TypeManagement, Subtype: sub, Addr1: ra, Addr2: ta, Addr3: bssid, Body: body}
}

// firstIE is the first element with the given ID, by the same rule the body
// decoders apply: a view of b, ok false when absent or behind a malformed one.
func firstIE(b []byte, id uint8) (data []byte, ok bool) {
	_ = ForEachIE(b, func(eid uint8, d []byte) bool {
		if eid == id {
			data, ok = d, true
			return false
		}
		return true
	})
	return data, ok
}

func TestDataRoundTrip(t *testing.T) {
	f := NewData(addrA, addrB, addrC, true, false, []byte("hello wireless world"))
	f.Seq = 1234
	f.Frag = 3
	f.Retry = true
	f.Duration = 314

	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatalf("UnmarshalInto: %v", err)
	}
	if got.Type != TypeData || got.Subtype != SubtypeData {
		t.Errorf("type/subtype = %v/%v", got.Type, got.Subtype)
	}
	if !got.ToDS || got.FromDS {
		t.Errorf("DS bits = %v/%v, want true/false", got.ToDS, got.FromDS)
	}
	if got.Addr1 != addrA || got.Addr2 != addrB || got.Addr3 != addrC {
		t.Errorf("addresses corrupted: %v %v %v", got.Addr1, got.Addr2, got.Addr3)
	}
	if got.Seq != 1234 || got.Frag != 3 {
		t.Errorf("seq/frag = %d/%d, want 1234/3", got.Seq, got.Frag)
	}
	if !got.Retry {
		t.Error("retry bit lost")
	}
	if got.Duration != 314 {
		t.Errorf("duration = %d, want 314", got.Duration)
	}
	if !bytes.Equal(got.Body, []byte("hello wireless world")) {
		t.Errorf("body = %q", got.Body)
	}
}

func TestWireLenMatchesMarshal(t *testing.T) {
	frames := []*Frame{
		NewData(addrA, addrB, addrC, false, false, make([]byte, 100)),
		rtsFrame(addrA, addrB, 100),
		ctsFrame(addrA, 100),
		ackFrame(addrA, 0),
		psPollFrame(addrA, addrB, 5),
		mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB, make([]byte, 50)),
		{Type: TypeData, Subtype: SubtypeData, ToDS: true, FromDS: true,
			Addr1: addrA, Addr2: addrB, Addr3: addrC, Addr4: addrD, Body: make([]byte, 10)},
	}
	for _, f := range frames {
		if got, want := len(f.AppendWire(nil)), f.WireLen(); got != want {
			t.Errorf("%s: wire len %d != WireLen %d", Name(f.Type, f.Subtype), got, want)
		}
	}
}

func TestControlFrameSizes(t *testing.T) {
	if n := len(rtsFrame(addrA, addrB, 0).AppendWire(nil)); n != 20 {
		t.Errorf("RTS is %d bytes, want 20", n)
	}
	if n := len(ctsFrame(addrA, 0).AppendWire(nil)); n != 14 {
		t.Errorf("CTS is %d bytes, want 14", n)
	}
	if n := len(ackFrame(addrA, 0).AppendWire(nil)); n != 14 {
		t.Errorf("ACK is %d bytes, want 14", n)
	}
}

func TestFCSDetectsCorruption(t *testing.T) {
	f := NewData(addrA, addrB, addrC, false, false, []byte("payload"))
	wire := f.AppendWire(nil)
	for bit := 0; bit < len(wire)*8; bit += 17 {
		corrupted := append([]byte(nil), wire...)
		corrupted[bit/8] ^= 1 << (bit % 8)
		if _, err := decode(corrupted); err == nil {
			t.Fatalf("single-bit corruption at bit %d not detected", bit)
		}
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := decode([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer accepted")
	}
}

func TestControlRoundTrip(t *testing.T) {
	rts := rtsFrame(addrA, addrB, 412)
	got, err := decode(rts.AppendWire(nil))
	if err != nil {
		t.Fatalf("RTS: %v", err)
	}
	if got.Subtype != SubtypeRTS || got.Addr1 != addrA || got.Addr2 != addrB || got.Duration != 412 {
		t.Errorf("RTS fields lost: %+v", got)
	}

	cts := ctsFrame(addrB, 300)
	got, err = decode(cts.AppendWire(nil))
	if err != nil {
		t.Fatalf("CTS: %v", err)
	}
	if got.Subtype != SubtypeCTS || got.Addr1 != addrB || got.Duration != 300 {
		t.Errorf("CTS fields lost: %+v", got)
	}

	ack := ackFrame(addrC, 0)
	got, err = decode(ack.AppendWire(nil))
	if err != nil {
		t.Fatalf("ACK: %v", err)
	}
	if got.Subtype != SubtypeACK || got.Addr1 != addrC {
		t.Errorf("ACK fields lost: %+v", got)
	}
}

func TestPSPollAID(t *testing.T) {
	f := psPollFrame(addrA, addrB, 7)
	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Duration&0x3fff != 7 {
		t.Errorf("PS-Poll AID = %d, want 7", got.Duration&0x3fff)
	}
	if got.Duration&0xc000 != 0xc000 {
		t.Error("PS-Poll AID high bits not set")
	}
}

func TestFourAddressFrame(t *testing.T) {
	f := &Frame{
		Type: TypeData, Subtype: SubtypeData, ToDS: true, FromDS: true,
		Addr1: addrA, Addr2: addrB, Addr3: addrC, Addr4: addrD,
		Body: []byte("wds"),
	}
	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Addr4 != addrD {
		t.Errorf("addr4 = %v, want %v", got.Addr4, addrD)
	}
	if got.SA() != addrD {
		t.Errorf("WDS SA = %v, want addr4", got.SA())
	}
	if !bytes.Equal(got.Body, []byte("wds")) {
		t.Errorf("body = %q", got.Body)
	}
}

func TestAddressSemantics(t *testing.T) {
	// STA -> AP (ToDS): addr1=BSSID, addr2=SA, addr3=DA.
	up := NewData(addrA, addrB, addrC, true, false, nil)
	if up.DA() != addrC || up.SA() != addrB || up.BSSID() != addrA {
		t.Errorf("ToDS semantics: DA=%v SA=%v BSSID=%v", up.DA(), up.SA(), up.BSSID())
	}
	// AP -> STA (FromDS): addr1=DA, addr2=BSSID, addr3=SA.
	down := NewData(addrA, addrB, addrC, false, true, nil)
	if down.DA() != addrA || down.SA() != addrC || down.BSSID() != addrB {
		t.Errorf("FromDS semantics: DA=%v SA=%v BSSID=%v", down.DA(), down.SA(), down.BSSID())
	}
	// IBSS: addr1=DA, addr2=SA, addr3=BSSID.
	ibss := NewData(addrA, addrB, addrC, false, false, nil)
	if ibss.DA() != addrA || ibss.SA() != addrB || ibss.BSSID() != addrC {
		t.Errorf("IBSS semantics: DA=%v SA=%v BSSID=%v", ibss.DA(), ibss.SA(), ibss.BSSID())
	}
}

func TestSeqNumberMasking(t *testing.T) {
	f := NewData(addrA, addrB, addrC, false, false, nil)
	f.Seq = 4095
	f.Frag = 15
	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 4095 || got.Frag != 15 {
		t.Errorf("max seq/frag = %d/%d", got.Seq, got.Frag)
	}
}

func TestPropertyRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(func(seqRaw uint16, fragRaw uint8, body []byte, toDS, fromDS, retry, protected bool) bool {
		if len(body) > MaxMSDU {
			body = body[:MaxMSDU]
		}
		f := &Frame{
			Type: TypeData, Subtype: SubtypeData,
			ToDS: toDS, FromDS: fromDS, Retry: retry, Protected: protected,
			Addr1: addrA, Addr2: addrB, Addr3: addrC, Addr4: addrD,
			Seq: seqRaw % MaxSeq, Frag: fragRaw % 16,
			Body: body,
		}
		got, err := decode(f.AppendWire(nil))
		if err != nil {
			return false
		}
		return got.Seq == f.Seq && got.Frag == f.Frag &&
			got.ToDS == toDS && got.FromDS == fromDS &&
			got.Retry == retry && got.Protected == protected &&
			bytes.Equal(got.Body, body)
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestSNAP(t *testing.T) {
	body := AppendSNAP(nil, 0x0800, []byte("ip packet"))
	if len(body) != SnapHeaderLen+9 {
		t.Fatalf("SNAP body length %d", len(body))
	}
	et, payload, err := DecapSNAP(body)
	if err != nil {
		t.Fatal(err)
	}
	if et != 0x0800 {
		t.Errorf("ethertype = %#x", et)
	}
	if string(payload) != "ip packet" {
		t.Errorf("payload = %q", payload)
	}
	if _, _, err := DecapSNAP([]byte{1, 2, 3}); err == nil {
		t.Error("short SNAP accepted")
	}
	if _, _, err := DecapSNAP(make([]byte, 10)); err == nil {
		t.Error("non-SNAP body accepted")
	}
}

func TestAddrHelpers(t *testing.T) {
	if !Broadcast.IsGroup() {
		t.Error("broadcast flags wrong")
	}
	if addrA.IsGroup() {
		t.Error("unicast misdetected")
	}
	multicast := MACAddr{0x01, 0, 0x5e, 0, 0, 1}
	if !multicast.IsGroup() {
		t.Error("multicast flags wrong")
	}
	if addrA.String() != "02:00:00:00:00:01" {
		t.Errorf("String() = %q", addrA.String())
	}
}

func TestAllocator(t *testing.T) {
	var al AddrAllocator
	seen := map[MACAddr]bool{}
	for i := 0; i < 1000; i++ {
		a := al.Next()
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		if a.IsGroup() {
			t.Fatalf("allocator produced group address %v", a)
		}
		seen[a] = true
	}
}

func TestNameCoverage(t *testing.T) {
	cases := []struct {
		t    Type
		s    Subtype
		want string
	}{
		{TypeManagement, SubtypeBeacon, "beacon"},
		{TypeManagement, SubtypeAuth, "auth"},
		{TypeControl, SubtypeRTS, "rts"},
		{TypeControl, SubtypeACK, "ack"},
		{TypeData, SubtypeData, "data"},
		{TypeData, SubtypeNullData, "null"},
	}
	for _, c := range cases {
		if got := Name(c.t, c.s); got != c.want {
			t.Errorf("Name(%v,%v) = %q, want %q", c.t, c.s, got, c.want)
		}
	}
}

func BenchmarkAppendWireData1500(b *testing.B) {
	f := NewData(addrA, addrB, addrC, true, false, make([]byte, 1500))
	buf := make([]byte, 0, f.WireLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = f.AppendWire(buf[:0])
	}
}

func BenchmarkUnmarshalIntoData1500(b *testing.B) {
	wire := NewData(addrA, addrB, addrC, true, false, make([]byte, 1500)).AppendWire(nil)
	var f Frame
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := UnmarshalInto(&f, wire); err != nil {
			b.Fatal(err)
		}
	}
}
