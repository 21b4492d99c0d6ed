package net80211

import (
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/sim"
)

// Adhoc is an IBSS (independent BSS) node: stations exchange data frames
// directly with ToDS = FromDS = 0 and a shared, locally administered BSSID.
// There is no association machinery; the experiments use it for mesh-style
// topologies.
type Adhoc struct {
	k     *sim.Kernel
	dcf   *mac.DCF
	bssid frame.MACAddr
	codec bodyCodec

	// OnReceive delivers application payloads.
	OnReceive DeliveryFunc

	TxPayloads uint64
	RxPayloads uint64
}

// NewAdhoc joins a node to the IBSS identified by bssid (all members must
// share it).
func NewAdhoc(k *sim.Kernel, dcf *mac.DCF, bssid frame.MACAddr) *Adhoc {
	a := &Adhoc{k: k, dcf: dcf, bssid: bssid, codec: bodyCodec{mac: dcf}}
	dcf.SetReceiver(a.receive)
	return a
}

// IBSSID returns a conventional locally administered BSSID for tests and
// examples that need a shared one.
func IBSSID() frame.MACAddr { return frame.MACAddr{0x02, 0xad, 0x0c, 0, 0, 0x01} }

// Address returns the node's MAC address.
func (a *Adhoc) Address() frame.MACAddr { return a.dcf.Address() }

// Send transmits an application payload directly to dst (or broadcast).
// The MAC queue admits the send before the frame is built, so a refused
// send touches nothing but the MAC's QueueDrops.
func (a *Adhoc) Send(dst frame.MACAddr, payload []byte) bool {
	if !a.dcf.Admit() {
		return false
	}
	f, _ := a.codec.data(frame.Frame{Addr1: dst, Addr2: a.Address(), Addr3: a.bssid}, payload)
	a.codec.send(f) // admitted: accepted
	a.TxPayloads++
	return true
}

// receive handles frames from the MAC.
func (a *Adhoc) receive(f *frame.Frame, _ medium.RxInfo) {
	if f.Type != frame.TypeData || f.ToDS || f.FromDS || f.BSSID() != a.bssid {
		return
	}
	payload, ok := a.codec.payload(f, nil) // unkeyed: never counts a decrypt error
	if !ok {
		return
	}
	a.RxPayloads++
	if a.OnReceive != nil {
		a.OnReceive(f.SA(), f.DA(), payload)
	}
}
