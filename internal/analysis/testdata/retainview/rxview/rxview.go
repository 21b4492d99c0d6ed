// Package rxview exercises the retainview contract: delivered frames and
// payloads are views into pooled buffers and must be Cloned to outlive the
// handler.
package rxview

import (
	"bytes"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/medium"
)

type keeper struct {
	held   *frame.Frame
	copied *frame.Frame
	body   []byte
	seq    uint16
	frames []*frame.Frame
	ch     chan *frame.Frame
	cb     func()
	pair   pair
	wired  ether.Frame
	addr   frame.MACAddr
}

type pair struct {
	f *frame.Frame
}

var global *frame.Frame

// OnRxFrame has the exact mac.Receiver signature, so it is a handler
// regardless of name.
func (k *keeper) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	k.held = f // want "valid only during the handler"
	global = f // want "valid only during the handler"
}

// handleData is a handler by name prefix and first-parameter type.
func (k *keeper) handleData(f *frame.Frame) {
	k.body = f.Body // want "valid only during the handler"
	v := f
	k.held = v // want "valid only during the handler"
}

func (k *keeper) rxStore(f *frame.Frame) {
	k.frames = append(k.frames, f) // want "valid only during the handler"
	k.pair = pair{f: f}            // want "valid only during the handler"
	k.ch <- f                      // want "sending a delivered frame view"
	k.cb = func() {
		f.Retry = true // want "closure captures the delivered frame view"
	}
}

// handleMgmt: what frame's decoders return for a view is a view — a parsed
// body's []byte fields, a SNAP payload; scalars are not.
func (k *keeper) handleMgmt(f *frame.Frame) {
	a, _ := frame.ParseAuth(f.Body)
	k.body = a.Challenge // want "valid only during the handler"
	et, payload, _ := frame.DecapSNAP(f.Body)
	_, k.body, _ = frame.DecapSNAP(payload) // want "valid only during the handler"
	k.seq = a.SeqNum + et
	k.body = append(k.body[:0], a.Challenge...)
}

// receiveClean shows the sanctioned shapes: Clone what outlives the
// handler, spread-copy body bytes, read scalars, and use the view freely
// in locals and synchronous closures.
func (k *keeper) receiveClean(f *frame.Frame, info medium.RxInfo) {
	k.copied = f.Clone()
	k.body = append(k.body[:0], f.Body...)
	k.seq = f.Seq
	tmp := f
	_ = tmp
	reply := func() { k.seq = f.Seq }
	reply()
	func() { k.seq = f.Seq }()
	k.copied = cloneFrame(f)
	var locals [1]*frame.Frame
	locals[0] = f // a local container dies with the handler
	_ = locals
}

// cloneFrame is a clone*-named helper: such functions sanitize.
func cloneFrame(f *frame.Frame) *frame.Frame { return f.Clone() }

// stash is not a handler (no matching name prefix, not the Receiver
// signature), so provenance of its parameter is unknown and nothing is
// flagged.
func stash(f *frame.Frame) {
	global = f
}

// deliver has the DeliveryFunc shape (OnDeliver, OnReceive) regardless of
// name: the payload is the view, the addresses are values.
func (k *keeper) deliver(src, dst frame.MACAddr, payload []byte) {
	k.body = payload     // want "valid only during the handler"
	k.body = payload[4:] // want "valid only during the handler"
	k.body = append(k.body[:0], payload...)
	k.body = bytes.Clone(payload)
	k.addr, k.seq = src, uint16(len(payload))
	_ = dst
}

// port has the ether port receiver shape regardless of name: the frame's
// Payload is the view.
func (k *keeper) port(ef ether.Frame) {
	k.body = ef.Payload // want "valid only during the handler"
	k.wired = ef        // want "valid only during the handler"
	k.addr = ef.Src
	k.body = bytes.Clone(ef.Payload)
}

// captured: an anonymous DeliveryFunc that stores the payload in a variable
// its enclosing function declared lets the view outlive the call.
func captured() []byte {
	var kept, copied []byte
	deliver := func(_, _ frame.MACAddr, payload []byte) {
		kept = payload // want "valid only during the handler"
		copied = bytes.Clone(payload)
		local := payload
		_ = local
	}
	deliver(frame.MACAddr{}, frame.MACAddr{}, nil)
	return append(kept, copied...)
}

// notDelivery takes a []byte after two values that are not addresses, and
// a pointer to an ether.Frame: neither is a delivery shape.
func notDelivery(a, b int, p []byte, ef *ether.Frame) {
	global = nil
	var k keeper
	k.body = p
	k.wired = *ef
	_, _ = a, b
}
