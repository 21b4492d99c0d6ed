// Package ether is the wired distribution-system substrate: a learning
// switch that connects access points (and any wired host) so ESS roaming
// and inter-BSS traffic work. It models store-and-forward latency but not
// Ethernet contention — the experiments never stress the wire, only the
// air, so fidelity beyond frame relay and MAC learning would be dead
// weight (recorded as a substitution in README.md's model-fidelity notes).
//
// The switch owns a copy of every payload it carries: Send may reuse its
// frame's payload at once, and a payload delivered to a port is a view of
// the switch's buffer, valid only during the port's rx call — the rule rx
// frames already follow (mac package docs). A receiver that keeps a
// payload past its rx call keeps a copy.
package ether

import (
	"repro/internal/frame"
	"repro/internal/sim"
)

// Frame is a wired-side frame: flat addresses and payload, no 802.11
// header. The AP translates between this and 802.11 data frames.
type Frame struct {
	Dst, Src frame.MACAddr
	Payload  []byte
}

// Port is one attachment point on the switch.
type Port struct {
	sw *Switch
	id int
	rx func(f Frame)
}

// Send puts a frame on the wire from this port.
func (p *Port) Send(f Frame) { p.sw.forward(p.id, f) }

// Switch is a learning Ethernet switch.
type Switch struct {
	k       *sim.Kernel
	ports   []*Port
	table   map[frame.MACAddr]int // learned address → port id
	Latency sim.Duration          // per-hop forwarding latency
	free    []*delivery           // delivery records not in flight

	Forwarded uint64
	Flooded   uint64
}

// NewSwitch builds a switch with the given forwarding latency (zero is
// fine for experiments).
func NewSwitch(k *sim.Kernel, latency sim.Duration) *Switch {
	return &Switch{k: k, table: make(map[frame.MACAddr]int), Latency: latency}
}

// AddPort attaches a device; rx is invoked for every frame the port should
// receive. The frame's payload is valid only during that call.
func (s *Switch) AddPort(rx func(f Frame)) *Port {
	p := &Port{sw: s, id: len(s.ports), rx: rx}
	s.ports = append(s.ports, p)
	return p
}

// delivery is one scheduled hand-over of a frame to a port. buf is the
// record's own copy of the payload and keeps its capacity on the free list;
// it is never nil, so an empty payload copied into it stays non-nil.
type delivery struct {
	p   *Port
	f   Frame
	buf []byte
}

// forward learns the source and delivers to the learned port or floods.
func (s *Switch) forward(fromID int, f Frame) {
	s.table[f.Src] = fromID
	if !f.Dst.IsGroup() {
		if toID, ok := s.table[f.Dst]; ok && toID != fromID {
			s.Forwarded++
			s.deliver(s.ports[toID], f)
			return
		}
	}
	// Flood: unknown unicast, broadcast or multicast.
	s.Flooded++
	for _, p := range s.ports {
		if p.id != fromID {
			s.deliver(p, f)
		}
	}
}

// deliver schedules one event per delivery, even at zero latency, so wired
// delivery never reenters the sender's call stack. The record copies the
// payload; a nil payload stays nil (an AP's association announcement) and
// an empty one stays empty.
func (s *Switch) deliver(p *Port, f Frame) {
	var d *delivery
	if n := len(s.free); n > 0 {
		d, s.free = s.free[n-1], s.free[:n-1]
	} else {
		d = &delivery{buf: []byte{}}
	}
	if f.Payload != nil {
		d.buf = append(d.buf[:0], f.Payload...)
		f.Payload = d.buf
	}
	d.p, d.f = p, f
	s.k.ScheduleArgSeq(s.k.Now().Add(s.Latency), s.k.ReserveSeq(1), "ether-fwd", runDelivery, d)
}

// runDelivery is the static "ether-fwd" callback. The port reads the
// record's buffer, so the record goes back to the free list only after rx
// returns; a handler that forwards takes another record.
func runDelivery(arg any) {
	d := arg.(*delivery)
	p := d.p
	p.rx(d.f)
	d.p, d.f = nil, Frame{}
	p.sw.free = append(p.sw.free, d)
}
