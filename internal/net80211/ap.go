// Package net80211 is the management plane above the MAC: access points
// (beaconing, authentication, association, intra-BSS bridging, power-save
// buffering), stations (scanning, join state machine, roaming with
// hysteresis, PS-Poll sleep cycles) and ad-hoc IBSS nodes. It corresponds
// to the SME/MLME layer a driver stack implements above mac80211.
//
// # Received frames are views
//
// Frames arriving from the MAC (mac.Receiver) are zero-copy views into
// pooled decode buffers, valid only during the callback. Retain nothing
// without frame.Frame.Clone — the AP's wired-DS forwarding, the power-save
// buffer and the MAC's reassembly all copy before they keep. cmd/wlanlint's
// retainview analyzer catches an RX view retained past its handler; see
// README.md "Static contracts". Sent frames need no such rule:
// mac.DCF.Enqueue copies what it accepts, so every send path builds its
// frame in one per-node body codec (bodyCodec), which also opens what it
// receives. Each receive path looks the sender up once and drops a frame
// whose class (frameClass) the sender's state (assocState) does not admit.
package net80211

import (
	"fmt"

	"repro/internal/ether"
	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wep"
)

// TU is the 802.11 time unit used for beacon intervals.
const TU = 1024 * sim.Microsecond

// EtherTypePayload is the LLC/SNAP ethertype used for application payloads.
const EtherTypePayload = 0x0800

// DeliveryFunc receives application payloads: src/dst are the original
// end-to-end addresses. payload is a view — of a decode or WEP-open
// scratch, or of the DS switch's copy — valid only during the call; a
// receiver that keeps it keeps a copy (retainview checks this shape).
type DeliveryFunc func(src, dst frame.MACAddr, payload []byte)

// APConfig parameterises an access point.
type APConfig struct {
	SSID string
	// BeaconInterval defaults to 100 TU.
	BeaconInterval sim.Duration
	// WEPKey enables privacy: shared-key authentication and WEP-sealed
	// data bodies.
	WEPKey wep.Key
	// PSBufferCap bounds the per-station power-save buffer (default 32).
	PSBufferCap int
}

// staEntry is the AP's per-station state.
type staEntry struct {
	addr  frame.MACAddr
	aid   uint16 // held in state 3 only
	state assocState
	ps    bool
	psBuf []*frame.Frame
	// challenge is the outstanding shared-key auth challenge.
	challenge []byte
}

// APStats counts management-plane activity.
type APStats struct {
	BeaconsSent   uint64
	AuthOK        uint64
	AuthFail      uint64
	Assocs        uint64
	Relayed       uint64 // STA→STA frames bridged inside the BSS
	ToDS          uint64 // frames forwarded to the wired DS
	FromDS        uint64 // frames delivered from the wired DS
	PSBuffered    uint64
	PSDelivered   uint64
	PSDropped     uint64
	DecryptErrors uint64
	Handoffs      uint64 // stale associations dropped on ESS roam announcements
}

// AP is an access point: one DCF below, beacon scheduler and association
// table above, optional wired DS port behind.
type AP struct {
	k    *sim.Kernel
	dcf  *mac.DCF
	cfg  APConfig
	ssid string

	stations map[frame.MACAddr]*staEntry
	byAID    map[uint16]*staEntry
	lastAID  uint16 // the AID handed out last; assignAID goes on from it

	port *ether.Port

	// codec builds every body the AP sends and opens every one it
	// receives, so steady-state bridging is allocation-free.
	codec bodyCodec
	// rates is the supported-rates IE, fixed at construction (the mode
	// never changes); beaconTIM is the reusable TIM scratch, DTIM count 0
	// and period 1 (every beacon is a DTIM). Together with AppendBeacon into
	// the codec's scratch they make beaconing — the one thing an idle BSS
	// does — allocation-free.
	rates     []byte
	beaconTIM frame.TIM

	// OnDeliver receives payloads addressed to the AP itself (or group).
	OnDeliver DeliveryFunc
	// Tracer receives management and power-save events; nil disables tracing.
	Tracer trace.Tracer
	Stats  APStats

	stopBeacons func()
}

// NewAP builds an access point on an existing DCF (whose address becomes
// the BSSID) and starts beaconing.
func NewAP(k *sim.Kernel, dcf *mac.DCF, cfg APConfig) *AP {
	if cfg.BeaconInterval == 0 {
		cfg.BeaconInterval = 100 * TU
	}
	if cfg.PSBufferCap == 0 {
		cfg.PSBufferCap = 32
	}
	ap := &AP{
		k:        k,
		dcf:      dcf,
		cfg:      cfg,
		ssid:     cfg.SSID,
		stations: make(map[frame.MACAddr]*staEntry),
		byAID:    make(map[uint16]*staEntry),
		codec:    bodyCodec{mac: dcf, key: cfg.WEPKey},
	}
	ap.rates = ap.rateIE()
	ap.beaconTIM.DTIMPeriod = 1
	dcf.SetReceiver(ap.receive)
	// Stagger the beacon phase per BSSID: co-located APs with synchronized
	// tickers would collide their beacons every interval, which real APs
	// avoid by having independent TSF start times.
	offset := sim.Duration(uint64(cfg.BeaconInterval) * (uint64(ap.BSSID()[5]) * 149 % 256) / 256)
	var stopped bool
	var stopTicker func()
	k.Schedule(offset, "beacon-start:"+cfg.SSID, func() {
		if stopped {
			return
		}
		ap.sendBeacon()
		stopTicker = k.Ticker(cfg.BeaconInterval, "beacon:"+cfg.SSID, ap.sendBeacon)
	})
	ap.stopBeacons = func() {
		stopped = true
		if stopTicker != nil {
			stopTicker()
		}
	}
	return ap
}

// BSSID returns the AP's MAC address.
func (ap *AP) BSSID() frame.MACAddr { return ap.dcf.Address() }

// Stop halts beaconing.
func (ap *AP) Stop() { ap.stopBeacons() }

// AttachDS connects the AP to a wired distribution system switch.
func (ap *AP) AttachDS(sw *ether.Switch) {
	ap.port = sw.AddPort(ap.fromDS)
}

// Associated reports whether addr is an associated station.
func (ap *AP) Associated(addr frame.MACAddr) bool {
	e := ap.stations[addr]
	return e != nil && e.state == associated
}

func (ap *AP) privacy() bool { return len(ap.cfg.WEPKey) > 0 }

func (ap *AP) name() string { return ap.dcf.Radio().Name() }

// sendBeacon enqueues the periodic beacon with the current TIM, built with
// AppendBeacon into the codec's scratch, so an idle BSS beacons forever
// without allocating.
func (ap *AP) sendBeacon() {
	tim := &ap.beaconTIM
	tim.AIDs = tim.AIDs[:0]
	//wlan:allow-nondeterminism TIM encodes as an AID bitmap, so the wire bytes are independent of collection order
	for _, e := range ap.stations {
		if e.state == associated && e.ps && len(e.psBuf) > 0 {
			tim.AIDs = append(tim.AIDs, e.aid)
		}
	}
	capBits := uint16(frame.CapESS)
	if ap.privacy() {
		capBits |= frame.CapPrivacy
	}
	b := frame.Beacon{
		Timestamp:  uint64(ap.k.Now() / 1000),
		IntervalTU: uint16(ap.cfg.BeaconInterval / TU),
		Capability: capBits,
		SSID:       ap.ssid,
		Rates:      ap.rates,
		Channel:    1, // the DS Parameter Set: every radio is on channel 1
		TIM:        tim,
	}
	if ap.codec.send(ap.mgmt(frame.SubtypeBeacon, frame.Broadcast, frame.AppendBeacon(ap.codec.body(), &b))) {
		ap.Stats.BeaconsSent++
	}
}

// mgmt stamps the AP's addresses on a management frame to dst.
func (ap *AP) mgmt(sub frame.Subtype, dst frame.MACAddr, body []byte) frame.Frame {
	return frame.Frame{
		Type: frame.TypeManagement, Subtype: sub,
		Addr1: dst, Addr2: ap.BSSID(), Addr3: ap.BSSID(),
		Body: body,
	}
}

func (ap *AP) rateIE() []byte {
	m := ap.dcf.Mode()
	var out []byte
	for i := 0; i < m.NumRates() && i < 8; i++ {
		r := m.Rate(phy.RateIdx(i))
		out = append(out, frame.RateByte(int(float64(r.BitRate)/500e3), r.Basic))
	}
	return out
}

// Send transmits an application payload from the AP itself to a station in
// the BSS (or broadcast). It returns false when the queue is full or the
// target is unknown; the queue is asked first, even for a dozing station,
// so a refused send touches nothing but the MAC's QueueDrops.
func (ap *AP) Send(dst frame.MACAddr, payload []byte) bool {
	if !ap.dcf.Admit() {
		return false
	}
	if !dst.IsGroup() && !ap.Associated(dst) {
		return false
	}
	return ap.queueFromDS(dst, ap.BSSID(), payload)
}

// queueFromDS builds a FromDS data frame in the transmit scratch (buffering
// for PS stations), so steady-state bridging allocates nothing. The
// power-save buffer outlives this call, so it keeps a Clone. Room — in the
// PS buffer for a dozing station, in the MAC queue otherwise — is checked
// before anything is sealed, so a refusal touches only PSDropped or
// QueueDrops.
func (ap *AP) queueFromDS(dst, src frame.MACAddr, payload []byte) bool {
	e := ap.stations[dst]
	dozing := e != nil && e.ps
	if dozing && len(e.psBuf) >= ap.cfg.PSBufferCap {
		ap.Stats.PSDropped++
		return false
	}
	if !dozing && !ap.dcf.Admit() {
		return false
	}
	f, ok := ap.codec.data(frame.Frame{
		FromDS: true,
		Addr1:  dst, Addr2: ap.BSSID(), Addr3: src,
	}, payload)
	if !ok {
		return false
	}
	if dozing {
		e.psBuf = append(e.psBuf, f.Clone())
		ap.Stats.PSBuffered++
		return true
	}
	return ap.codec.send(f) // admitted: accepted
}

// receive handles every frame the MAC delivers. It looks the sender up once
// and drops a class-3 frame from one not in state 3. A class-2 frame from
// state 1 passes: handleAssoc refuses it with status 1, where the standard
// would answer with a deauthentication.
func (ap *AP) receive(f *frame.Frame, _ medium.RxInfo) {
	e := ap.stations[f.Addr2]
	if frameClass(f) == associated && (e == nil || e.state != associated) {
		return
	}
	switch sub := f.Subtype; {
	case f.Type == frame.TypeData:
		ap.handleData(f, e)
	case f.Type == frame.TypeControl && sub == frame.SubtypePSPoll:
		ap.handlePSPoll(f, e)
	case f.Type != frame.TypeManagement:
	case sub == frame.SubtypeAuth:
		ap.handleAuth(f)
	case sub == frame.SubtypeAssocReq || sub == frame.SubtypeReassocReq:
		ap.handleAssoc(f)
	case (sub == frame.SubtypeDisassoc || sub == frame.SubtypeDeauth) && e != nil:
		ap.leave(e)
	}
}

// leave returns a station to state 1: its AID is freed and its power-save
// state cleared, every frame still buffered for it counted in PSDropped, so
// nothing held for one association reaches the next.
func (ap *AP) leave(e *staEntry) {
	if e.state == associated {
		delete(ap.byAID, e.aid)
	}
	e.state, e.aid, e.ps = unauthenticated, 0, false
	ap.Stats.PSDropped += uint64(len(e.psBuf))
	e.psBuf = nil
}

// dropStation removes a roamed-away station's association state. Called on
// ESS handoff announcements from the DS; a station that was never
// associated here is a no-op (its own AP hears its announcement too, but
// the switch never reflects a frame back to its source port).
func (ap *AP) dropStation(addr frame.MACAddr) {
	if e := ap.stations[addr]; e != nil && e.state == associated {
		ap.leave(e)
		ap.Stats.Handoffs++
	}
}

func (ap *AP) entry(addr frame.MACAddr) *staEntry {
	e := ap.stations[addr]
	if e == nil {
		e = &staEntry{addr: addr, state: unauthenticated}
		ap.stations[addr] = e
	}
	return e
}

func (ap *AP) handleAuth(f *frame.Frame) {
	e := ap.entry(f.Addr2)
	reply := func(algo, seq, status uint16, challenge []byte) {
		a := frame.Auth{Algorithm: algo, SeqNum: seq, Status: status, Challenge: challenge}
		ap.codec.send(ap.mgmt(frame.SubtypeAuth, f.Addr2, frame.AppendAuth(ap.codec.body(), &a)))
	}
	// Shared-key sequence 3 arrives WEP-sealed: decrypt before parsing.
	body := f.Body
	if f.Protected {
		if !ap.privacy() {
			return
		}
		plain, err := ap.codec.open(body)
		if err != nil {
			// Wrong key: the challenge response is unreadable.
			ap.Stats.AuthFail++
			ap.Stats.DecryptErrors++
			e.challenge = nil
			reply(frame.AuthAlgoSharedKey, 4, frame.StatusChallengeFail, nil)
			return
		}
		body = plain
	}
	a, err := frame.ParseAuth(body)
	if err != nil {
		return
	}
	switch {
	case a.Algorithm == frame.AuthAlgoOpen && a.SeqNum == 1:
		if ap.privacy() {
			// Privacy BSS refuses open auth (strict-WEP policy).
			ap.Stats.AuthFail++
			reply(a.Algorithm, 2, frame.StatusAuthAlgoUnsupp, nil)
			return
		}
		e.state = max(e.state, authenticated) // state 3 stays
		ap.Stats.AuthOK++
		reply(a.Algorithm, 2, frame.StatusSuccess, nil)
	case a.Algorithm == frame.AuthAlgoSharedKey && a.SeqNum == 1:
		if !ap.privacy() {
			ap.Stats.AuthFail++
			reply(a.Algorithm, 2, frame.StatusAuthAlgoUnsupp, nil)
			return
		}
		// Issue a deterministic 128-byte challenge.
		ch := make([]byte, 128)
		for i := range ch {
			ch[i] = byte(i) ^ f.Addr2[5]
		}
		e.challenge = ch
		reply(a.Algorithm, 2, frame.StatusSuccess, ch)
	case a.Algorithm == frame.AuthAlgoSharedKey && a.SeqNum == 3:
		if e.challenge == nil || !f.Protected ||
			string(a.Challenge) != string(e.challenge) {
			ap.Stats.AuthFail++
			e.challenge = nil
			reply(a.Algorithm, 4, frame.StatusChallengeFail, nil)
			return
		}
		e.state = max(e.state, authenticated) // state 3 stays
		e.challenge = nil
		ap.Stats.AuthOK++
		reply(a.Algorithm, 4, frame.StatusSuccess, nil)
	}
}

// maxAID is the largest association ID 802.11 allows; a TIM's bitmap for it
// still fits its one-byte element length.
const maxAID = 2007

// assignAID hands out the first AID not in use after the last one handed
// out, wrapping inside 1..maxAID, or 0 when every one is in use.
func (ap *AP) assignAID() uint16 {
	if len(ap.byAID) >= maxAID {
		return 0
	}
	for {
		ap.lastAID = ap.lastAID%maxAID + 1
		if ap.byAID[ap.lastAID] == nil {
			return ap.lastAID
		}
	}
}

func (ap *AP) handleAssoc(f *frame.Frame) {
	req, err := frame.ParseAssocReq(f.Body)
	if err != nil || string(req.SSID) != ap.ssid {
		return
	}
	e := ap.entry(f.Addr2)
	status := uint16(frame.StatusSuccess)
	switch e.state {
	case unauthenticated:
		status = frame.StatusUnspecified
	case authenticated:
		if e.aid = ap.assignAID(); e.aid == 0 {
			status = frame.StatusAssocDenied
		} else {
			e.state = associated
			ap.byAID[e.aid] = e
			ap.Stats.Assocs++
			if ap.port != nil {
				// Announce the station on the wire so the switch learns it here.
				ap.port.Send(ether.Frame{Dst: frame.Broadcast, Src: f.Addr2, Payload: nil})
			}
		}
	}
	resp := frame.AssocResp{Capability: frame.CapESS, Status: status, AID: e.aid, Rates: ap.rates}
	ap.codec.send(ap.mgmt(frame.SubtypeAssocResp, f.Addr2, frame.AppendAssocResp(ap.codec.body(), &resp)))
	if ap.Tracer != nil {
		ap.Tracer.Trace(trace.Event{At: ap.k.Now(), Node: ap.name(), Kind: trace.KindMgmt,
			Detail: fmt.Sprintf("assoc %v aid=%d status=%d", f.Addr2, e.aid, status)})
	}
}

// handleData bridges a data frame from e, a station in state 3.
func (ap *AP) handleData(f *frame.Frame, e *staEntry) {
	// Track power management transitions.
	ap.setPS(e, f.PwrMgmt)
	if f.Subtype == frame.SubtypeNullData || !f.ToDS {
		return
	}
	payload, ok := ap.codec.payload(f, &ap.Stats.DecryptErrors)
	if !ok {
		return
	}
	src, dst := f.SA(), f.DA()
	switch {
	case dst == ap.BSSID():
		if ap.OnDeliver != nil {
			ap.OnDeliver(src, dst, payload)
		}
	case dst.IsGroup():
		// Deliver locally, rebroadcast into the BSS, and flood the DS.
		if ap.OnDeliver != nil {
			ap.OnDeliver(src, dst, payload)
		}
		ap.queueFromDS(dst, src, payload)
		if ap.port != nil {
			ap.Stats.ToDS++
			ap.port.Send(ether.Frame{Dst: dst, Src: src, Payload: payload})
		}
	case ap.Associated(dst):
		ap.Stats.Relayed++
		ap.queueFromDS(dst, src, payload)
	case ap.port != nil:
		ap.Stats.ToDS++
		ap.port.Send(ether.Frame{Dst: dst, Src: src, Payload: payload})
	}
}

// setPS updates a station's power-save state; leaving PS flushes the buffer.
func (ap *AP) setPS(e *staEntry, ps bool) {
	if e.ps == ps {
		return
	}
	e.ps = ps
	if ap.Tracer != nil {
		ap.Tracer.Trace(trace.Event{At: ap.k.Now(), Node: ap.name(), Kind: trace.KindPS,
			Detail: fmt.Sprintf("%v ps=%v", e.addr, ps)})
	}
	if !ps {
		for _, f := range e.psBuf {
			if ap.dcf.Enqueue(f) {
				ap.Stats.PSDelivered++
			} else {
				ap.Stats.PSDropped++
			}
		}
		e.psBuf = nil
	}
}

// handlePSPoll answers a PS-Poll from e, a station in state 3, naming e's AID.
func (ap *AP) handlePSPoll(f *frame.Frame, e *staEntry) {
	if f.Duration&0x3fff != e.aid || len(e.psBuf) == 0 {
		return
	}
	// Enqueue copies: the buffered frame is released only once accepted, and
	// a refused one stays at the head for the next poll.
	out := *e.psBuf[0]
	out.MoreData = len(e.psBuf) > 1
	if !ap.dcf.Enqueue(&out) {
		return
	}
	e.psBuf = e.psBuf[1:]
	ap.Stats.PSDelivered++
}

// fromDS handles frames arriving from the wired side. ef.Payload is a view
// of the switch's buffer, valid only during this call: queueFromDS copies
// it into the MAC queue or a PS-buffer Clone, and OnDeliver receivers may
// not retain it.
func (ap *AP) fromDS(ef ether.Frame) {
	if ef.Payload == nil {
		// A peer AP in the ESS announced this address on the wire: the
		// station (re)associated there. If it was associated here it has
		// roamed away — drop the stale entry so in-BSS relay and
		// power-save buffering stop black-holing its traffic.
		ap.dropStation(ef.Src)
		return
	}
	switch {
	case ef.Dst == ap.BSSID():
		if ap.OnDeliver != nil {
			ap.OnDeliver(ef.Src, ef.Dst, ef.Payload)
		}
	case ef.Dst.IsGroup() || ap.Associated(ef.Dst):
		ap.Stats.FromDS++
		ap.queueFromDS(ef.Dst, ef.Src, ef.Payload)
	}
}
