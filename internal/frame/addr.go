// Package frame implements the IEEE 802.11 MAC frame wire format: frame
// control bits, the four-address header, sequence control, management and
// control frame layouts, information elements, LLC/SNAP encapsulation and
// the CRC-32 frame check sequence. Frames travel as real byte layouts so the
// security layer (WEP/CCMP) and the tracer operate on honest wire images
// rather than structs.
//
// There is one codec, views in and appends out. Decoders (UnmarshalInto,
// ForEachIE, Parse*, DecapSNAP) never copy: what they return
// aliases the input and lives only as long as it (Frame.Clone or a copy
// keeps one). Encoders (AppendWire, AppendIE, Append*, AppendSNAP) append
// to the caller's buffer: capacity makes them allocation-free, nil one-off.
//
// Frame.Zeros lets a transmit frame leave its body's zero tail unstored;
// net80211's unprotected data sends set it, and decoded frames carry 0.
package frame

import (
	"fmt"
)

// MACAddr is a 48-bit IEEE MAC address.
type MACAddr [6]byte

// Broadcast is the all-ones broadcast address.
var Broadcast = MACAddr{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// IsGroup reports whether a is a group (multicast or broadcast) address.
func (a MACAddr) IsGroup() bool { return a[0]&0x01 != 0 }

func (a MACAddr) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", a[0], a[1], a[2], a[3], a[4], a[5])
}

// AddrAllocator hands out locally administered unicast addresses
// (02:00:00:xx:xx:xx) in sequence. Deterministic, so traces are stable.
type AddrAllocator struct {
	next uint32
}

// Next returns a fresh address.
func (al *AddrAllocator) Next() MACAddr {
	al.next++
	n := al.next
	return MACAddr{0x02, 0x00, 0x00, byte(n >> 16), byte(n >> 8), byte(n)}
}

// Peers is a per-address table: records in a flat array scanned linearly
// behind a last-hit index. A station hears a handful of peers, so the scan
// is shorter than a map lookup and, unlike map inserts, steady state never
// allocates; the records are values, so first contact costs only the
// amortised growth of the arrays. The zero value is an empty table.
type Peers[T any] struct {
	addrs []MACAddr
	vals  []T
	hit   int // index of the most recently used peer
}

// Get returns addr's record, appending a zero one on first contact, which
// it reports as fresh. Growth may move the records, so the pointer must not
// be held across calls.
func (p *Peers[T]) Get(addr MACAddr) (rec *T, fresh bool) {
	if p.hit < len(p.addrs) && p.addrs[p.hit] == addr {
		return &p.vals[p.hit], false
	}
	for i := range p.addrs {
		if p.addrs[i] == addr {
			p.hit = i
			return &p.vals[i], false
		}
	}
	var zero T
	p.addrs = append(p.addrs, addr)
	p.vals = append(p.vals, zero)
	p.hit = len(p.addrs) - 1
	return &p.vals[p.hit], true
}
