package net80211

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/wep"
)

// bodyCodec is one node's frame-body codec: its WEP key (always key slot 0)
// and IV counter, and the scratch its bodies live in — buf the next send's body,
// snap the plaintext seal reads, plain what open decrypts into.
// mac.DCF.Enqueue copies what it accepts, so buf and snap are free again as
// soon as send returns, and steady-state traffic reuses their grown
// capacity forever — zero allocations per payload.
type bodyCodec struct {
	mac   *mac.DCF
	key   wep.Key
	ivs   wep.IVCounter
	buf   []byte
	snap  []byte
	plain []byte
}

// body returns the emptied scratch for an appender to build a frame body in.
func (c *bodyCodec) body() []byte { return c.buf[:0] }

// clear returns the emptied scratch for an appender to build a plaintext in.
func (c *bodyCodec) clear() []byte { return c.snap[:0] }

// send hands f to the MAC and reports whether it was accepted. A body built
// on body() that outgrew the scratch becomes the scratch.
//
//wlan:hotpath
func (c *bodyCodec) send(f frame.Frame) bool {
	if cap(f.Body) > cap(c.buf) {
		c.buf = f.Body[:0]
	}
	return c.mac.Enqueue(&f)
}

// seal makes plain, built on clear(), hdr's body, WEP-sealed into the
// scratch under the next IV; ok is false if sealing fails.
//
//wlan:hotpath
func (c *bodyCodec) seal(hdr frame.Frame, plain []byte) (f frame.Frame, ok bool) {
	if cap(plain) > cap(c.snap) {
		c.snap = plain[:0]
	}
	sealed, err := wep.SealTo(c.body(), c.key, c.ivs.Next(), 0, plain)
	if err != nil {
		return hdr, false
	}
	hdr.Body, hdr.Protected = sealed, true
	return hdr, true
}

// open decrypts a received WEP body into the plaintext scratch: a view,
// valid until the next open. Consumers copy what they keep (queueFromDS
// re-encapsulates, the DS switch copies what it carries).
func (c *bodyCodec) open(body []byte) ([]byte, error) {
	plain, err := wep.OpenTo(c.plain[:0], c.key, 0, body)
	if err != nil {
		return nil, err
	}
	c.plain = plain
	return plain, nil
}

// data builds hdr into a data frame carrying payload under SNAP: sealed
// whole under a key, else stored up to its last non-zero byte with Zeros
// counting the rest. Its body is the scratch; ok is false if sealing fails.
//
//wlan:hotpath
func (c *bodyCodec) data(hdr frame.Frame, payload []byte) (f frame.Frame, ok bool) {
	hdr.Type, hdr.Subtype = frame.TypeData, frame.SubtypeData
	if len(c.key) > 0 {
		return c.seal(hdr, frame.AppendSNAP(c.clear(), EtherTypePayload, payload))
	}
	stored := payload[:len(payload)-frame.ZeroTail(payload)]
	body := frame.AppendSNAP(c.body(), EtherTypePayload, stored)
	if len(stored) == 0 { // all-zero payload: the SNAP header's zero tail joins the run
		body = body[:len(body)-frame.ZeroTail(body)]
	}
	hdr.Body, hdr.Zeros = body, frame.SnapHeaderLen+len(payload)-len(body)
	return hdr, true
}

// payload is data's inverse: the application payload of f, opened if
// protected — only under a key, and a body that does not open counts in
// *decryptErrs — and ok only under an EtherTypePayload SNAP header.
//
//wlan:hotpath
func (c *bodyCodec) payload(f *frame.Frame, decryptErrs *uint64) (payload []byte, ok bool) {
	body := f.Body
	if f.Protected {
		if len(c.key) == 0 {
			return nil, false
		}
		plain, err := c.open(body)
		if err != nil {
			*decryptErrs++
			return nil, false
		}
		body = plain
	}
	et, payload, err := frame.DecapSNAP(body)
	if err != nil || et != EtherTypePayload {
		return nil, false
	}
	return payload, true
}
