package mac

import (
	"repro/internal/frame"
)

// rxPeer is the receive state the standard keeps per transmitter: the
// (sequence, fragment) tuple of the last accepted MPDU, consulted only when
// the Retry bit is set, and the MSDU being reassembled from fragments. Its
// body keeps its capacity across MSDUs, so steady-state reassembly
// allocates nothing once warmed.
type rxPeer struct {
	last     uint32 // seq<<4 | frag of the last accepted MPDU
	active   bool   // a partial MSDU is in progress
	seq      uint16
	nextFrag uint8
	first    frame.Frame
	body     []byte
}

// rxTable filters duplicates and reassembles fragmented MSDUs, one rxPeer
// per transmitter. Out-of-order or interleaved fragments abort the partial
// (the sender would have to retry the whole MSDU anyway).
type rxTable struct {
	peers frame.Peers[rxPeer]
	// out is the scratch for completed multi-fragment MSDUs. Like every
	// delivered rx frame it is a view, valid only for the duration of the
	// delivery call; the next completed reassembly reuses it.
	out frame.Frame
}

// accept takes an MPDU addressed to this station. dup reports a repeat of
// the MPDU last accepted from its transmitter; otherwise the MPDU is
// recorded and msdu is the complete MSDU it finishes, or nil while
// reassembly is in progress.
//
//wlan:hotpath
func (r *rxTable) accept(f *frame.Frame) (msdu *frame.Frame, dup bool) {
	p, fresh := r.peers.Get(f.Addr2)
	k := uint32(f.Seq)<<4 | uint32(f.Frag)
	if f.Retry && !fresh && p.last == k {
		return nil, true
	}
	p.last = k
	if f.Frag == 0 && !f.MoreFrag {
		p.active = false // a fresh unfragmented MSDU cancels any partial
		return f, false
	}
	if f.Frag == 0 {
		p.active = true
		p.seq = f.Seq
		p.nextFrag = 1
		p.first = *f
		// The partial outlives the rx callback, and f.Body is a view into a
		// pooled wire buffer; body below holds the copy, so drop the alias.
		p.first.Body = nil
		p.body = append(p.body[:0], f.Body...)
		return nil, false
	}
	if !p.active || p.seq != f.Seq || p.nextFrag != f.Frag {
		p.active = false
		return nil, false
	}
	p.body = append(p.body, f.Body...)
	p.nextFrag++
	if f.MoreFrag {
		return nil, false
	}
	p.active = false
	r.out = p.first
	r.out.Body = p.body
	r.out.MoreFrag = false
	return &r.out, false
}
