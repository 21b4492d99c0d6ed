package net80211

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/wep"
)

// txPool recycles outgoing data frames and their body buffers for one
// node's send path. Each slot pairs a Frame header with a reusable body
// buffer (the SNAP encapsulation up to its last non-zero byte, the
// WEP-sealed envelope or a management body); snap is the plaintext scratch
// WEP sealing reads from.
//
// Ownership protocol: slot() hands out the current slot for the caller to
// fill and pass to mac.DCF.Enqueue. If the MAC accepts the frame the caller
// must commit() — ownership has moved to the MAC until the MSDU is
// delivered or dropped. If the enqueue is refused (or the frame is handed
// somewhere that clones it, like a power-save buffer) the caller simply
// does not commit, and the next send reuses the slot.
//
// The ring wraps at queueCap+2 slots, queueCap being the MAC's transmit
// queue capacity, but holds only as many as the MAC's backlog has needed:
// slot() restarts at slot 0 whenever the MAC holds no frame (mac.DCF.Busy).
// From that instant on the pool advances only on
// accepted enqueues, and the MAC drains in FIFO order holding at most
// queueCap+1 frames (the queue plus the in-flight job), so no slot comes
// round again before the MAC released it, counting from the last instant
// the MAC held nothing: holding it would take queueCap+2 resident frames.
// Growing copies the ring and rewrites no frame the MAC holds: those stay
// in the old array, and their copies come round only after the MAC released
// them. Steady-state sends reuse the Frame structs and their grown body
// buffers forever — zero allocations per payload.
type txPool struct {
	mac   *mac.DCF
	slots []txSlot
	next  int
	snap  []byte
}

// txSlot is one pooled outgoing frame.
type txSlot struct {
	f    frame.Frame
	body []byte
}

// newTxPool builds an empty pool for the node whose MAC is d.
func newTxPool(d *mac.DCF) *txPool { return &txPool{mac: d} }

// slot returns the current slot. The caller overwrites slot.f entirely and
// rebuilds slot.body from length zero, so no state leaks between sends.
//
//wlan:hotpath
func (p *txPool) slot() *txSlot {
	if !p.mac.Busy() {
		p.next = 0
	}
	if p.next == len(p.slots) {
		p.grow()
	}
	return &p.slots[p.next]
}

// grow quadruples the ring, up to its wrap.
func (p *txPool) grow() {
	slots := make([]txSlot, min(max(2, 4*len(p.slots)), p.mac.QueueCap()+2))
	copy(slots, p.slots)
	p.slots = slots
}

// commit advances the pool after the MAC accepted the current slot's frame.
//
//wlan:hotpath
func (p *txPool) commit() {
	if p.next++; p.next == p.mac.QueueCap()+2 {
		p.next = 0
	}
}

// data fills the current slot with hdr as a data frame carrying payload
// under SNAP: WEP-sealed whole under a key, else stored up to its last
// non-zero byte with Zeros counting the rest. It returns nil if sealing fails.
//
//wlan:hotpath
func (p *txPool) data(hdr frame.Frame, payload []byte, key wep.Key, keyID byte, ivs *wep.IVCounter) *txSlot {
	s := p.slot()
	if len(key) > 0 {
		p.snap = frame.AppendSNAP(p.snap[:0], EtherTypePayload, payload)
		sealed, err := wep.SealTo(emptied(s.body, len(p.snap)+wep.IVHeaderLen+wep.ICVLen), key, ivs.Next(), keyID, p.snap)
		if err != nil {
			return nil
		}
		s.body, hdr.Protected = sealed, true
	} else {
		stored := payload[:len(payload)-frame.ZeroTail(payload)]
		s.body = frame.AppendSNAP(emptied(s.body, frame.SnapHeaderLen+len(stored)), EtherTypePayload, stored)
		if len(stored) == 0 { // all-zero payload: the SNAP header's zero tail joins the run
			s.body = s.body[:len(s.body)-frame.ZeroTail(s.body)]
		}
		hdr.Zeros = frame.SnapHeaderLen + len(payload) - len(s.body)
	}
	hdr.Type, hdr.Subtype, hdr.Body = frame.TypeData, frame.SubtypeData, s.body
	s.f = hdr
	return s
}

// emptied returns b emptied with room for n bytes. A body that must grow
// gets at least 64 B at once: SNAP and a measurement header, so a trimmed
// body does not regrow as the header's fields gain non-zero bytes.
func emptied(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, 0, max(n, 64))
	}
	return b[:0]
}

// TxPool hands an auditor the node's transmit pool: the frame and body
// buffer its next send would fill, as slot hands them out now, the number
// of slots the ring held before the asking and their bodies' summed
// capacity.
func (a *Adhoc) TxPool() (*frame.Frame, []byte, int, int) { return a.tx.probe() }

// TxPool is Adhoc.TxPool for a station.
func (s *STA) TxPool() (*frame.Frame, []byte, int, int) { return s.tx.probe() }

// TxPool is Adhoc.TxPool for an access point.
func (ap *AP) TxPool() (*frame.Frame, []byte, int, int) { return ap.tx.probe() }

func (p *txPool) probe() (*frame.Frame, []byte, int, int) {
	n, room := len(p.slots), 0
	for i := range p.slots {
		room += cap(p.slots[i].body)
	}
	s := p.slot()
	return &s.f, s.body, n, room
}
