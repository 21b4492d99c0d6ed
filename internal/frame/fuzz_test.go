package frame

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"
	"testing/quick"
)

// refDecode is the oracle UnmarshalInto is held to: an independent decoder
// written off the 802.11 MPDU layout with every offset, mask and length
// spelled out as a literal. It shares no code with UnmarshalInto — not the
// frame-control helper, not the length constants, not Name — and copies the
// body, so its result is independent of wire. The error values are the
// package's (same verdict, same text).
//
//	0  frame control   byte 0: version(2) type(2) subtype(4)
//	                   byte 1: ToDS FromDS MoreFrag Retry PwrMgmt MoreData Protected Order
//	2  duration/ID     little-endian
//	4  address 1
//	10 address 2       absent in CTS/ACK (14 bytes with FCS)
//	16 address 3       absent in RTS/PS-Poll (20 bytes with FCS)
//	22 sequence ctl    fragment(4) sequence(12), little-endian
//	24 address 4       only when ToDS and FromDS
//	.. body, then the CRC-32 FCS over everything before it
func refDecode(wire []byte) (*Frame, error) {
	if len(wire) < 14 {
		return nil, ErrShortFrame
	}
	n := len(wire) - 4
	fcs := uint32(wire[n]) | uint32(wire[n+1])<<8 | uint32(wire[n+2])<<16 | uint32(wire[n+3])<<24
	if crc32.ChecksumIEEE(wire[:n]) != fcs {
		return nil, ErrBadFCS
	}
	if v := wire[0] & 0x03; v != 0 {
		return nil, fmt.Errorf("frame: unsupported protocol version %d", v)
	}
	f := &Frame{
		Type:      Type(wire[0] >> 2 & 0x03),
		Subtype:   Subtype(wire[0] >> 4),
		ToDS:      wire[1]&0x01 != 0,
		FromDS:    wire[1]&0x02 != 0,
		MoreFrag:  wire[1]&0x04 != 0,
		Retry:     wire[1]&0x08 != 0,
		PwrMgmt:   wire[1]&0x10 != 0,
		MoreData:  wire[1]&0x20 != 0,
		Protected: wire[1]&0x40 != 0,
		Order:     wire[1]&0x80 != 0,
		Duration:  uint16(wire[2]) | uint16(wire[3])<<8,
	}
	copy(f.Addr1[:], wire[4:10])
	if f.Type == 1 { // control: fixed lengths, no sequence control, no body
		name, want := "", 0
		switch f.Subtype {
		case 10:
			name, want = "ps-poll", 20
		case 11:
			name, want = "rts", 20
		case 12:
			name, want = "cts", 14
		case 13:
			name, want = "ack", 14
		}
		if want != 0 {
			if len(wire) != want {
				return nil, fmt.Errorf("frame: %s has length %d, want %d", name, len(wire), want)
			}
			if want == 20 {
				copy(f.Addr2[:], wire[10:16])
			}
			return f, nil
		}
	}
	if n < 24 {
		return nil, ErrShortFrame
	}
	copy(f.Addr2[:], wire[10:16])
	copy(f.Addr3[:], wire[16:22])
	seqCtl := uint16(wire[22]) | uint16(wire[23])<<8
	f.Frag = uint8(seqCtl & 0x000f)
	f.Seq = seqCtl >> 4
	body := 24
	if f.ToDS && f.FromDS {
		if n < 30 {
			return nil, ErrShortFrame
		}
		copy(f.Addr4[:], wire[24:30])
		body = 30
	}
	f.Body = append([]byte{}, wire[body:n]...)
	return f, nil
}

// sealed returns b followed by its correct FCS: arbitrary bytes never pass
// the checksum on their own, so this is what lets random and fuzzed input
// reach the header logic behind it.
func sealed(b []byte) []byte {
	out := append([]byte(nil), b...)
	fcs := crc32.ChecksumIEEE(out)
	return append(out, byte(fcs), byte(fcs>>8), byte(fcs>>16), byte(fcs>>24))
}

// decodersAgree asserts UnmarshalInto and the reference decoder produce the
// same verdict on wire: identical errors, or identical fields with the
// view's body aliasing wire and the reference body independent of it.
func decodersAgree(t *testing.T, wire []byte) {
	t.Helper()
	ref, refErr := refDecode(wire)
	var view Frame
	viewErr := UnmarshalInto(&view, wire)
	switch {
	case refErr == nil && viewErr != nil:
		t.Fatalf("reference accepted %x, UnmarshalInto rejected: %v", wire, viewErr)
	case refErr != nil && viewErr == nil:
		t.Fatalf("UnmarshalInto accepted %x, reference rejected: %v", wire, refErr)
	case refErr != nil:
		if refErr.Error() != viewErr.Error() {
			t.Fatalf("error mismatch on %x: reference=%q UnmarshalInto=%q", wire, refErr, viewErr)
		}
		return
	}
	if !bytes.Equal(ref.Body, view.Body) {
		t.Fatalf("body mismatch on %x: reference %x, UnmarshalInto %x", wire, ref.Body, view.Body)
	}
	rh, vh := *ref, view
	rh.Body, vh.Body = nil, nil
	if !reflect.DeepEqual(rh, vh) {
		t.Fatalf("field mismatch on %x:\nreference:     %+v\nUnmarshalInto: %+v", wire, rh, vh)
	}
	// The view must alias wire (zero-copy), the reference body must not.
	if len(view.Body) > 0 {
		if &view.Body[0] != &wire[len(wire)-FCSLen-len(view.Body)] {
			t.Fatalf("UnmarshalInto body does not alias the wire buffer")
		}
		if &ref.Body[0] == &view.Body[0] {
			t.Fatalf("reference body aliases the wire buffer")
		}
	}
}

// TestUnmarshalIntoEquivalence holds UnmarshalInto to the reference decoder
// over arbitrary bytes (almost all rejected at the FCS), the same bytes
// with a valid FCS appended (the header logic decides), and valid frames of
// every layout with every header bit exercised (all accepted).
func TestUnmarshalIntoEquivalence(t *testing.T) {
	if err := quick.Check(func(b []byte) bool {
		decodersAgree(t, b)
		decodersAgree(t, sealed(b))
		return true
	}, &quick.Config{MaxCount: 4000}); err != nil {
		t.Fatal(err)
	}
	valid := []*Frame{
		rtsFrame(addrA, addrB, 123),
		ctsFrame(addrA, 44),
		ackFrame(addrB, 0),
		psPollFrame(addrC, addrA, 7),
		NewData(addrA, addrB, addrC, true, false, []byte("payload")),
		NewData(addrA, addrB, addrC, false, false, nil),
		{Type: TypeData, Subtype: SubtypeData, ToDS: true, FromDS: true,
			Addr1: addrA, Addr2: addrB, Addr3: addrC, Addr4: addrD, Body: []byte("wds body")},
		mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB, AppendBeacon(nil, &Beacon{SSID: "x", Rates: []byte{0x82}})),
	}
	for _, f := range valid {
		f.Seq, f.Frag, f.Duration = 0xabc, 0x0d, 0xbeef
		decodersAgree(t, f.AppendWire(nil))
		// Each flag on its own, so no decoder can swap or drop one unseen.
		for _, flag := range []*bool{&f.MoreFrag, &f.Retry, &f.PwrMgmt, &f.MoreData, &f.Protected, &f.Order} {
			*flag = true
			decodersAgree(t, f.AppendWire(nil))
			*flag = false
		}
	}
}

// TestUnmarshalIntoPooledReuse checks that re-decoding into a dirty Frame
// leaves no residue from the previous decode — the property the medium's
// frame pool relies on.
func TestUnmarshalIntoPooledReuse(t *testing.T) {
	var f Frame
	rich := &Frame{Type: TypeData, Subtype: SubtypeData, ToDS: true, FromDS: true,
		Addr1: addrA, Addr2: addrB, Addr3: addrC, Addr4: addrA,
		Seq: 99, Frag: 3, Retry: true, PwrMgmt: true, MoreData: true,
		Duration: 5555, Body: []byte("leftover state")}
	if err := UnmarshalInto(&f, rich.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	cts := ctsFrame(addrC, 1)
	if err := UnmarshalInto(&f, cts.AppendWire(nil)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, *cts) {
		t.Fatalf("stale fields after pooled reuse:\ngot  %+v\nwant %+v", f, *cts)
	}
}

// TestCloneDetachesFromWire checks the retention escape hatch: a Clone of a
// zero-copy view must survive the wire buffer being rewritten.
func TestCloneDetachesFromWire(t *testing.T) {
	wire := NewData(addrA, addrB, addrC, false, false, []byte("hold me")).AppendWire(nil)
	var view Frame
	if err := UnmarshalInto(&view, wire); err != nil {
		t.Fatal(err)
	}
	cl := view.Clone()
	for i := range wire {
		wire[i] = 0xff
	}
	if string(cl.Body) != "hold me" {
		t.Fatalf("clone body corrupted by wire reuse: %q", cl.Body)
	}
	if string(view.Body) == "hold me" {
		t.Fatal("view body unexpectedly survived wire rewrite (not aliasing?)")
	}
}

// FuzzUnmarshalInto is the native fuzz entry for the equivalence property,
// on the input as it comes and with a valid FCS appended; the seed corpus
// covers every frame layout plus truncations of a management frame.
func FuzzUnmarshalInto(f *testing.F) {
	f.Add([]byte{})
	f.Add(ackFrame(addrA, 9).AppendWire(nil))
	f.Add(rtsFrame(addrA, addrB, 88).AppendWire(nil))
	f.Add(NewData(addrA, addrB, addrC, true, false, []byte("seed payload")).AppendWire(nil))
	beacon := mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB,
		AppendBeacon(nil, &Beacon{SSID: "fuzz", Rates: []byte{0x82, 0x84}, Channel: 6,
			TIM: &TIM{DTIMPeriod: 2, AIDs: []uint16{1, 9}}})).AppendWire(nil)
	f.Add(beacon)
	for n := 0; n < len(beacon); n += 7 {
		f.Add(beacon[:n])
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		decodersAgree(t, b)
		decodersAgree(t, sealed(b))
	})
}

// mgmtBody is one management body layout under test: a valid body, the
// length of its fixed header, and its decoder's verdict.
type mgmtBody struct {
	name  string
	full  []byte
	fixed int
	parse func([]byte) error
}

func mgmtBodies() []mgmtBody {
	challenge := make([]byte, 128)
	for i := range challenge {
		challenge[i] = byte(i) ^ 0x5a
	}
	return []mgmtBody{
		{"beacon", AppendBeacon(nil, &Beacon{
			Timestamp: 1 << 40, IntervalTU: 100, Capability: CapESS,
			SSID: "corpus", Rates: []byte{0x82, 0x84, 0x8b, 0x96}, Channel: 11,
			TIM: &TIM{DTIMCount: 1, DTIMPeriod: 3, Multicast: true, AIDs: []uint16{2, 17}},
		}), 12, func(b []byte) error { _, err := ParseBeacon(b); return err }},
		{"auth", AppendAuth(nil, &Auth{Algorithm: AuthAlgoSharedKey, SeqNum: 2, Challenge: challenge}),
			6, func(b []byte) error { _, err := ParseAuth(b); return err }},
		{"assoc-req", AppendAssocReq(nil, &AssocReq{Capability: CapESS, ListenIntv: 10,
			SSID: []byte("corpus"), Rates: []byte{0x82, 0x84}}),
			4, func(b []byte) error { _, err := ParseAssocReq(b); return err }},
		{"assoc-resp", AppendAssocResp(nil, &AssocResp{Capability: CapESS, AID: 3, Rates: []byte{0x82}}),
			6, func(b []byte) error { _, err := ParseAssocResp(b); return err }},
	}
}

// elementBoundaries returns the lengths at which a prefix of full ends on
// an element boundary: the fixed header alone, then after each element.
// The walk is spelled out here, not borrowed from ForEachIE.
func elementBoundaries(full []byte, fixed int) map[int]bool {
	at := map[int]bool{fixed: true}
	for off := fixed; off < len(full); {
		off += 2 + int(full[off+1])
		at[off] = true
	}
	return at
}

// TestTruncatedManagementElements is the corruption corpus: a management
// body cut anywhere but on an element boundary must be rejected whole by
// its decoder (never panic, never use half a list), and one cut on a
// boundary accepted. The frames are re-encoded after truncation, so the FCS
// is valid and corruption handling is tested in the body decoders rather
// than masked by the checksum.
func TestTruncatedManagementElements(t *testing.T) {
	for _, m := range mgmtBodies() {
		boundary := elementBoundaries(m.full, m.fixed)
		if !boundary[len(m.full)] {
			t.Fatalf("%s: the full body does not end on an element boundary", m.name)
		}
		for cut := 0; cut <= len(m.full); cut++ {
			wire := mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB, m.full[:cut]).AppendWire(nil)
			decodersAgree(t, wire)
			got, err := decode(wire)
			if err != nil {
				t.Fatalf("%s cut=%d: valid-FCS frame rejected: %v", m.name, cut, err)
			}
			if err := m.parse(got.Body); (err == nil) != boundary[cut] {
				t.Fatalf("%s cut=%d: decoder verdict %v, on an element boundary: %v", m.name, cut, err, boundary[cut])
			}
			if cut < m.fixed {
				continue
			}
			// The element readers agree with the decoder: a clean walk exactly
			// on a boundary, and firstIE finds whatever the walk passed.
			ies := got.Body[m.fixed:]
			walkErr := ForEachIE(ies, func(id uint8, data []byte) bool {
				if found, ok := firstIE(ies, id); !ok || !bytes.Equal(found, data) {
					t.Fatalf("%s cut=%d: firstIE(%d) = %x, %v; the walk saw %x", m.name, cut, id, found, ok, data)
				}
				return true
			})
			if (walkErr == nil) != boundary[cut] {
				t.Fatalf("%s cut=%d: ForEachIE err=%v, on an element boundary: %v", m.name, cut, walkErr, boundary[cut])
			}
		}
	}
}

// inside reports whether part is a sub-slice of whole — same backing
// array, within whole's length — rather than a copy of some of its bytes.
func inside(part, whole []byte) bool {
	if len(part) == 0 {
		return true
	}
	off := cap(whole) - cap(part)
	return off >= 0 && off+len(part) <= len(whole) && &whole[off] == &part[0]
}

// decodeTIM is the TIM as the station would see it: nil when the element is
// absent or too short to decode.
func decodeTIM(elem []byte) *TIM {
	var t TIM
	if ParseTIMInto(&t, elem) != nil {
		return nil
	}
	return &t
}

// checkMgmtBody runs every body decoder over b. None may panic; whatever
// one accepts must re-encode through its Append* twin and re-parse to the
// same fields (absent and empty elements read alike: the encoders always
// write SSID and rates); and every slice it returns must lie inside b.
func checkMgmtBody(t *testing.T, b []byte) {
	t.Helper()
	view := func(name string, part []byte) {
		t.Helper()
		if !inside(part, b) {
			t.Fatalf("%s of %x is not a view of the input", name, b)
		}
	}
	if v, err := ParseBeacon(b); err == nil {
		view("beacon SSID", v.SSID)
		view("beacon rates", v.Rates)
		view("beacon TIM", v.TIM)
		tim := decodeTIM(v.TIM)
		again, err := ParseBeacon(AppendBeacon(nil, &Beacon{Timestamp: v.Timestamp, IntervalTU: v.IntervalTU,
			Capability: v.Capability, SSID: string(v.SSID), Rates: v.Rates, Channel: v.Channel, TIM: tim}))
		if err != nil {
			t.Fatalf("re-encoded beacon %x rejected: %v", b, err)
		}
		if again.Timestamp != v.Timestamp || again.IntervalTU != v.IntervalTU || again.Capability != v.Capability ||
			!bytes.Equal(again.SSID, v.SSID) || !bytes.Equal(again.Rates, v.Rates) || again.Channel != v.Channel ||
			!reflect.DeepEqual(decodeTIM(again.TIM), tim) {
			t.Fatalf("beacon %x changed across re-encode:\nfirst  %+v\nsecond %+v", b, v, again)
		}
	}
	if v, err := ParseAuth(b); err == nil {
		view("auth challenge", v.Challenge)
		again, err := ParseAuth(AppendAuth(nil, &v))
		if err != nil || again.Algorithm != v.Algorithm || again.SeqNum != v.SeqNum || again.Status != v.Status ||
			!bytes.Equal(again.Challenge, v.Challenge) {
			t.Fatalf("auth %x changed across re-encode: %+v then %+v (%v)", b, v, again, err)
		}
	}
	if v, err := ParseAssocReq(b); err == nil {
		view("assoc-req SSID", v.SSID)
		view("assoc-req rates", v.Rates)
		again, err := ParseAssocReq(AppendAssocReq(nil, &v))
		if err != nil || again.Capability != v.Capability || again.ListenIntv != v.ListenIntv ||
			!bytes.Equal(again.SSID, v.SSID) || !bytes.Equal(again.Rates, v.Rates) {
			t.Fatalf("assoc-req %x changed across re-encode: %+v then %+v (%v)", b, v, again, err)
		}
	}
	if v, err := ParseAssocResp(b); err == nil {
		view("assoc-resp rates", v.Rates)
		again, err := ParseAssocResp(AppendAssocResp(nil, &v))
		if err != nil || again.Capability != v.Capability || again.Status != v.Status || again.AID != v.AID ||
			!bytes.Equal(again.Rates, v.Rates) {
			t.Fatalf("assoc-resp %x changed across re-encode: %+v then %+v (%v)", b, v, again, err)
		}
	}
	_ = ForEachIE(b, func(id uint8, data []byte) bool {
		view("element data", data)
		if found, ok := firstIE(b, id); !ok || !inside(found, b) {
			t.Fatalf("firstIE(%x, %d) lost an element the walk passed", b, id)
		}
		return true
	})
	if et, payload, err := DecapSNAP(b); err == nil {
		view("SNAP payload", payload)
		// DecapSNAP does not read the OUI, so only the fields round-trip.
		et2, payload2, err := DecapSNAP(AppendSNAP(nil, et, payload))
		if err != nil || et2 != et || !bytes.Equal(payload2, payload) {
			t.Fatalf("SNAP body %x changed across re-encode", b)
		}
	}
}

// FuzzMgmtBody is the hostile-input wall on the management-body decoders
// the station and the AP run (see checkMgmtBody). The seed corpus is every
// valid body cut at every element boundary — the shared-key challenge body
// among them — plus two SNAP bodies.
func FuzzMgmtBody(f *testing.F) {
	for _, m := range mgmtBodies() {
		boundary := elementBoundaries(m.full, m.fixed)
		for cut := m.fixed; cut <= len(m.full); cut++ {
			if boundary[cut] {
				f.Add(m.full[:cut])
			}
		}
	}
	f.Add(AppendSNAP(nil, 0x0800, []byte("ip packet")))
	f.Add([]byte("\xaa\xaa\x03\x00\x40\x96\x08\x00vendor OUI"))
	f.Fuzz(checkMgmtBody)
}

// The codec faces bytes from the radio model only, but a codec that panics
// on arbitrary input is a codec with latent bugs. These tests feed
// adversarial inputs through every parser.

func TestUnmarshalNeverPanics(t *testing.T) {
	if err := quick.Check(func(b []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("UnmarshalInto panicked on %x", b)
			}
		}()
		_, _ = decode(b)
		_, _ = decode(sealed(b))
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalValidPrefixCorruptedTail(t *testing.T) {
	// Take a valid frame, truncate at every length: must error, not panic.
	f := NewData(addrA, addrB, addrC, true, false, make([]byte, 64))
	wire := f.AppendWire(nil)
	for n := 0; n < len(wire); n++ {
		if _, err := decode(wire[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// TestParsersNeverPanic runs checkMgmtBody — every decoder, its round trip
// and its view contract — over random bytes, raw and behind each body's
// valid fixed header so the element walk is what the noise reaches.
func TestParsersNeverPanic(t *testing.T) {
	bodies := mgmtBodies()
	if err := quick.Check(func(b []byte, which uint8) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("a decoder panicked on %x", b)
			}
		}()
		checkMgmtBody(t, b)
		m := bodies[int(which)%len(bodies)]
		checkMgmtBody(t, append(m.full[:m.fixed:m.fixed], b...))
		return true
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// countIEs walks the element list b to its end.
func countIEs(b []byte) (n int, err error) {
	err = ForEachIE(b, func(uint8, []byte) bool { n++; return true })
	return n, err
}

func TestIEsWithPathologicalLengths(t *testing.T) {
	// An IE claiming more data than the buffer holds: the walk fails, every
	// body decoder rejects the body, and firstIE finds nothing behind it.
	overlong := []byte{0, 255, 1, 2, 3}
	if _, err := countIEs(overlong); err == nil {
		t.Error("overlong IE accepted")
	}
	if _, err := ParseBeacon(append(make([]byte, 12), overlong...)); err == nil {
		t.Error("beacon with an overlong IE accepted")
	}
	if _, ok := firstIE(overlong, IEDSParam); ok {
		t.Error("firstIE found an element behind an overlong one")
	}
	// Zero-length IEs are legal and must terminate.
	if n, err := countIEs([]byte{0, 0, 3, 0, 5, 0}); err != nil || n != 3 {
		t.Errorf("zero-length IEs: %d %v", n, err)
	}
	// A giant chain of empty IEs parses in linear time without blowup.
	big := make([]byte, 4096)
	for i := range big {
		if i%2 == 0 {
			big[i] = byte(i % 250)
		}
	}
	if n, err := countIEs(big); err != nil || n != len(big)/2 {
		t.Errorf("alternating empty IEs: %d %v", n, err)
	}
}

func TestBeaconFromGarbageBody(t *testing.T) {
	// Valid MPDU whose beacon body is garbage: UnmarshalInto succeeds (FCS
	// is over the garbage), ParseBeacon must fail cleanly.
	f := mgmtFrame(SubtypeBeacon, Broadcast, addrB, addrB, []byte{1, 2, 3})
	got, err := decode(f.AppendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseBeacon(got.Body); err == nil {
		t.Error("3-byte beacon body accepted")
	}
}
