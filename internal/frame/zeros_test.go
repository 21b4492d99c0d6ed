package frame

import (
	"bytes"
	"slices"
	"testing"
)

// naiveZeroTail is ZeroTail's reference: one byte at a time from the end.
func naiveZeroTail(b []byte) int {
	n := 0
	for n < len(b) && b[len(b)-1-n] == 0 {
		n++
	}
	return n
}

// FuzzZeroTail holds a frame whose zero fill is a count to the same frame
// with the fill stored: for any header fields, stored body and Zeros,
// AppendWire (onto a prefix it must leave alone) writes the bytes, and
// WireLen reports the length, of the frame whose Body is Body ++ 0^Zeros;
// UnmarshalInto of that image reports Zeros 0; and ZeroTail agrees with a
// byte loop on the stored body and on the materialized one.
func FuzzZeroTail(f *testing.F) {
	snap := AppendSNAP(nil, 0x0800, []byte("\x01\x00\x00\x00\x07\x00\x00\x00\x00\x00\x00\x00\x40\x42\x0f"))
	f.Add(uint16(0x0108), uint16(44), uint16(0x123), snap, uint16(1480))
	f.Add(uint16(0x0208), uint16(0), uint16(0), snap[:7], uint16(1))
	f.Add(uint16(0x0308), uint16(314), uint16(4095), []byte{}, uint16(2304))
	f.Add(uint16(0x0088), uint16(9), uint16(1), []byte{0, 0, 0}, uint16(0))
	f.Add(uint16(0x00d4), uint16(0), uint16(0), []byte("ack"), uint16(20))
	f.Add(uint16(0x00b4), uint16(88), uint16(0), []byte{}, uint16(300))
	f.Fuzz(func(t *testing.T, fc, dur, seq uint16, body []byte, zeros uint16) {
		var fr Frame
		if err := fr.setFrameControl(byte(fc)&^0x03, byte(fc>>8)); err != nil {
			t.Fatal(err)
		}
		fr.Duration, fr.Seq, fr.Frag = dur, seq&0x0fff, uint8(seq>>12)
		fr.Addr1, fr.Addr2, fr.Addr3, fr.Addr4 = addrA, addrB, addrC, MACAddr{2, 4, 6, 8, 10, 12}
		fr.Body, fr.Zeros = body, int(zeros%(MaxMPDU+1))
		full := fr
		full.Body, full.Zeros = append(slices.Clone(body), make([]byte, fr.Zeros)...), 0

		prefix := []byte("kept")
		got := fr.AppendWire(slices.Clone(prefix))
		want := full.AppendWire(slices.Clone(prefix))
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendWire with %d B stored + %d zeros:\n got %x\nwant %x", len(body), fr.Zeros, got, want)
		}
		if fr.WireLen() != full.WireLen() || fr.WireLen() != len(want)-len(prefix) {
			t.Fatalf("WireLen %d, materialized %d, image %d", fr.WireLen(), full.WireLen(), len(want)-len(prefix))
		}
		dec := Frame{Zeros: 99}
		if err := UnmarshalInto(&dec, want[len(prefix):]); err == nil && dec.Zeros != 0 {
			t.Fatalf("decoded frame carries Zeros %d", dec.Zeros)
		}
		for _, b := range [][]byte{body, full.Body} {
			if got, want := ZeroTail(b), naiveZeroTail(b); got != want {
				t.Fatalf("ZeroTail of %d B = %d, byte loop says %d", len(b), got, want)
			}
		}
	})
}

// TestCloneKeepsZeros: a clone stores the same prefix in its own storage
// and keeps the count, so it encodes to the original's image.
func TestCloneKeepsZeros(t *testing.T) {
	f := NewData(addrA, addrB, addrC, false, false, []byte{0xaa, 1, 2})
	f.Zeros = 40
	c := f.Clone()
	if c.Zeros != 40 || &c.Body[0] == &f.Body[0] {
		t.Fatalf("clone Zeros %d, shares storage %v", c.Zeros, &c.Body[0] == &f.Body[0])
	}
	if !bytes.Equal(c.AppendWire(nil), f.AppendWire(nil)) {
		t.Fatal("clone encodes differently")
	}
}
