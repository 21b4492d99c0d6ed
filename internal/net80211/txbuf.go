package net80211

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/wep"
)

// txBuf is one node's transmit scratch: buf is the body its next send is
// built in, snap the plaintext WEP sealing reads from. mac.DCF.Enqueue copies
// what it accepts, so both are free again as soon as send returns, and
// steady-state sends reuse their grown capacity forever — zero allocations
// per payload.
type txBuf struct {
	mac  *mac.DCF
	buf  []byte
	snap []byte
}

// body returns the emptied scratch for an appender to build a frame body in.
func (p *txBuf) body() []byte { return p.buf[:0] }

// send hands f to the MAC and reports whether it was accepted. A body built
// on body() that outgrew the scratch becomes the scratch.
//
//wlan:hotpath
func (p *txBuf) send(f frame.Frame) bool {
	if cap(f.Body) > cap(p.buf) {
		p.buf = f.Body[:0]
	}
	return p.mac.Enqueue(&f)
}

// data builds hdr into a data frame carrying payload under SNAP: WEP-sealed
// whole under a key, else stored up to its last non-zero byte with Zeros
// counting the rest. Its body is the scratch; ok is false if sealing fails.
//
//wlan:hotpath
func (p *txBuf) data(hdr frame.Frame, payload []byte, key wep.Key, keyID byte, ivs *wep.IVCounter) (f frame.Frame, ok bool) {
	if len(key) > 0 {
		p.snap = frame.AppendSNAP(p.snap[:0], EtherTypePayload, payload)
		sealed, err := wep.SealTo(p.body(), key, ivs.Next(), keyID, p.snap)
		if err != nil {
			return hdr, false
		}
		hdr.Body, hdr.Protected = sealed, true
	} else {
		stored := payload[:len(payload)-frame.ZeroTail(payload)]
		body := frame.AppendSNAP(p.body(), EtherTypePayload, stored)
		if len(stored) == 0 { // all-zero payload: the SNAP header's zero tail joins the run
			body = body[:len(body)-frame.ZeroTail(body)]
		}
		hdr.Body, hdr.Zeros = body, frame.SnapHeaderLen+len(payload)-len(body)
	}
	hdr.Type, hdr.Subtype = frame.TypeData, frame.SubtypeData
	return hdr, true
}
