package net80211

import (
	"bytes"
	"fmt"

	"repro/internal/frame"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
	"repro/internal/wep"
)

// STAConfig parameterises a station.
type STAConfig struct {
	SSID string
	// WEPKey enables shared-key authentication and WEP data privacy.
	WEPKey wep.Key
	// RoamThreshold: when the serving AP's smoothed beacon RSSI falls
	// below this level the station rescans. Default -75 dBm.
	RoamThreshold units.DBm
	// RoamHysteresis: a candidate must beat the serving AP by this margin.
	// Default 6 dB.
	RoamHysteresis units.DB
	// BeaconMissLimit: consecutive missed beacons before the link is
	// declared lost. Default 8.
	BeaconMissLimit int
	// PowerSave enables the PS-Poll doze cycle.
	PowerSave bool
}

// scanDwell is how long a scan listens for beacons: just over one beacon
// interval. Scanning is passive; a station sends no probe request.
const scanDwell = 120 * sim.Millisecond

// candidate is a BSS discovered by scanning.
type candidate struct {
	bssid    frame.MACAddr
	ssid     string
	rssi     float64 // EWMA dBm
	lastSeen sim.Time
	privacy  bool
}

// STAStats counts station activity.
type STAStats struct {
	Scans         uint64
	BeaconsSeen   uint64
	AuthAttempts  uint64
	Associations  uint64
	Roams         uint64
	LinkLosses    uint64
	PSPollsSent   uint64
	TxPayloads    uint64
	RxPayloads    uint64
	DecryptErrors uint64
}

// STA is a station: scanning, join state machine, roaming and power save
// above one DCF.
type STA struct {
	k   *sim.Kernel
	dcf *mac.DCF
	cfg STAConfig

	state    assocState // scanning, then state 1 to 3 toward bssid
	cands    map[frame.MACAddr]*candidate
	bssid    frame.MACAddr
	aid      uint16
	servRSSI float64 // EWMA of serving AP beacon RSSI
	missed   int

	mgmtTimer sim.Timer
	mgmtTries int

	// codec builds every body the station sends and opens every one it
	// receives, so steady-state traffic is allocation-free.
	codec bodyCodec
	// ssidBytes and rates are the SSID and supported-rates IE payloads,
	// fixed at construction; association requests append them into the
	// codec's scratch so (re)joining marshals nothing on the heap.
	ssidBytes []byte
	rates     []byte
	psWake    sim.Timer // pending pre-beacon wakeup
	// beaconInt is the serving AP's beacon interval, learned from beacons.
	beaconInt sim.Duration
	// psAwaitData holds the station awake between a PS-Poll and the
	// buffered frame's arrival, or psAwait's timeout.
	psAwaitData bool
	psAwait     sim.Timer
	psAwaitEnd  func() // psAwait's callback, allocated once
	// timScratch is the reusable TIM decode target of the beacon hot path
	// (see handleBeacon): idle-BSS beacon reception allocates nothing.
	timScratch frame.TIM

	// OnReceive delivers application payloads.
	OnReceive DeliveryFunc
	// OnAssociated fires after every successful (re)association.
	OnAssociated func(bssid frame.MACAddr)
	// Tracer receives management and roaming events; nil disables tracing.
	Tracer trace.Tracer
	Stats  STAStats
}

// NewSTA builds a station on an existing DCF and starts scanning.
func NewSTA(k *sim.Kernel, dcf *mac.DCF, cfg STAConfig) *STA {
	if cfg.RoamThreshold == 0 {
		cfg.RoamThreshold = -75
	}
	if cfg.RoamHysteresis == 0 {
		cfg.RoamHysteresis = 6
	}
	if cfg.BeaconMissLimit == 0 {
		cfg.BeaconMissLimit = 8
	}
	s := &STA{
		k:         k,
		dcf:       dcf,
		cfg:       cfg,
		cands:     make(map[frame.MACAddr]*candidate),
		codec:     bodyCodec{mac: dcf, key: cfg.WEPKey},
		ssidBytes: []byte(cfg.SSID),
		rates:     []byte{frame.RateByte(2, true)},
		beaconInt: 100 * TU,
	}
	s.psAwaitEnd = func() { s.psAwaitData = false }
	dcf.SetReceiver(s.receive)
	k.Schedule(0, "sta-start", s.startScan)
	return s
}

// Address returns the station MAC address.
func (s *STA) Address() frame.MACAddr { return s.dcf.Address() }

// Associated reports whether the station is associated.
func (s *STA) Associated() bool { return s.state == associated }

// BSSID returns the serving AP address (zero when unassociated).
func (s *STA) BSSID() frame.MACAddr { return s.bssid }

// Send transmits an application payload to dst through the serving AP. It
// returns false when the queue is full or the station is unassociated; the
// queue is asked first, so a refused send touches nothing but the MAC's
// QueueDrops — no doze timer re-armed, no WEP IV consumed. The outgoing frame
// is built in the station's transmit scratch: steady-state sends allocate
// nothing.
func (s *STA) Send(dst frame.MACAddr, payload []byte) bool {
	if !s.dcf.Admit() || s.state != associated {
		return false
	}
	s.wakeForTraffic()
	f, ok := s.codec.data(frame.Frame{
		ToDS:  true,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: dst,
		PwrMgmt: s.cfg.PowerSave,
	}, payload)
	if !ok {
		return false
	}
	s.codec.send(f) // admitted: accepted
	s.Stats.TxPayloads++
	return true
}

// --- scanning -------------------------------------------------------------

func (s *STA) startScan() {
	if s.dcf.Radio().Transmitting() {
		s.k.Schedule(5*sim.Millisecond, "scan-retry", s.startScan)
		return
	}
	s.state = scanning
	s.Stats.Scans++
	s.cands = make(map[frame.MACAddr]*candidate)
	if s.dcf.Radio().Asleep() {
		s.dcf.Radio().Wake()
	}
	s.k.Schedule(scanDwell, "scan-dwell", s.finishScan)
}

// mgmt stamps the station's addresses on a management frame to the target
// AP, which is also its BSSID field.
func (s *STA) mgmt(sub frame.Subtype, body []byte) frame.Frame {
	return frame.Frame{
		Type: frame.TypeManagement, Subtype: sub,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
		Body: body,
	}
}

// finishScan ends a scan's dwell by joining the best candidate. A dwell that
// outlives its scan — the station left the scanning state — does nothing.
func (s *STA) finishScan() {
	if s.state != scanning {
		return
	}
	best := s.bestCandidate()
	if best == nil {
		// Nothing found: rescan after a backoff.
		s.k.Schedule(200*sim.Millisecond, "rescan", s.startScan)
		return
	}
	s.join(best)
}

// bestCandidate picks the strongest scanned AP. Ties on RSSI break on
// BSSID so the choice is a pure function of the candidate set — map
// iteration order must never decide which AP a station joins
// (determinism contract).
func (s *STA) bestCandidate() *candidate {
	var best *candidate
	//wlan:allow-nondeterminism order-independent max: total order on (rssi, bssid) makes the reduction commutative
	for _, c := range s.cands {
		if c.ssid != s.cfg.SSID {
			continue
		}
		if best == nil || betterCandidate(c, best) {
			best = c
		}
	}
	return best
}

// betterCandidate is the strict total order scan results are reduced by:
// higher RSSI wins, lower BSSID breaks ties.
func betterCandidate(a, b *candidate) bool {
	if a.rssi != b.rssi {
		return a.rssi > b.rssi
	}
	return bytes.Compare(a.bssid[:], b.bssid[:]) < 0
}

// --- join state machine -----------------------------------------------------

func (s *STA) join(c *candidate) {
	if s.dcf.Radio().Transmitting() {
		s.k.Schedule(2*sim.Millisecond, "join-wait", func() { s.join(c) })
		return
	}
	s.state = unauthenticated
	s.bssid = c.bssid
	s.servRSSI = c.rssi
	s.missed = 0
	s.mgmtTries = 0
	s.sendAuth1()
}

func (s *STA) sendAuth1() {
	s.Stats.AuthAttempts++
	algo := uint16(frame.AuthAlgoOpen)
	if len(s.cfg.WEPKey) > 0 {
		algo = frame.AuthAlgoSharedKey
	}
	a := frame.Auth{Algorithm: algo, SeqNum: 1}
	s.codec.send(s.mgmt(frame.SubtypeAuth, frame.AppendAuth(s.codec.body(), &a)))
	s.armMgmtTimer(s.sendAuth1)
}

func (s *STA) sendAssocReq() {
	s.state = authenticated
	req := frame.AssocReq{
		Capability: frame.CapESS,
		ListenIntv: 10,
		SSID:       s.ssidBytes,
		Rates:      s.rates,
	}
	s.codec.send(s.mgmt(frame.SubtypeAssocReq, frame.AppendAssocReq(s.codec.body(), &req)))
	s.armMgmtTimer(s.sendAssocReq)
}

// armMgmtTimer schedules a retry of the current management step; after 4
// fruitless tries the station rescans.
func (s *STA) armMgmtTimer(retry func()) {
	s.k.Cancel(s.mgmtTimer)
	s.mgmtTries++
	if s.mgmtTries > 4 {
		s.startScan()
		return
	}
	s.mgmtTimer = s.k.Schedule(80*sim.Millisecond, "mgmt-retry", retry)
}

// --- frame handling ---------------------------------------------------------

// receive handles every frame the MAC delivers. Beacons feed the scan
// from any AP; anything else must come from the
// target AP in a class the station's state admits, and each management
// reply is read only in the state that awaits it.
func (s *STA) receive(f *frame.Frame, info medium.RxInfo) {
	mgmt := f.Type == frame.TypeManagement
	if mgmt && f.Subtype == frame.SubtypeBeacon {
		s.handleBeacon(f, info)
		return
	}
	if f.Addr2 != s.bssid || frameClass(f) > s.state {
		return
	}
	switch sub := f.Subtype; {
	case f.Type == frame.TypeData && f.FromDS:
		s.handleData(f)
	case !mgmt:
	case sub == frame.SubtypeAuth && s.state == unauthenticated:
		s.handleAuth(f)
	case (sub == frame.SubtypeAssocResp || sub == frame.SubtypeReassocResp) && s.state == authenticated:
		s.handleAssocResp(f)
	case (sub == frame.SubtypeDeauth || sub == frame.SubtypeDisassoc) && s.state == associated:
		s.Stats.LinkLosses++
		s.startScan()
	}
}

// handleBeacon consumes a beacon through frame.ParseBeacon,
// whose result is a view into the frame body, and ParseTIMInto into the
// reusable TIM scratch — so steady-state beacon reception allocates nothing
// (the SSID string is only materialised when it actually changes). A body
// the decoder rejects is ignored whole. This is the rx half of the idle-BSS
// alloc wall; the AP's AppendBeacon is the tx half.
func (s *STA) handleBeacon(f *frame.Frame, info medium.RxInfo) {
	b, err := frame.ParseBeacon(f.Body)
	if err != nil {
		return
	}
	s.Stats.BeaconsSeen++
	c := s.cands[f.Addr2]
	if c == nil {
		c = &candidate{bssid: f.Addr2}
		s.cands[f.Addr2] = c
		c.rssi = float64(info.RSSI)
	}
	if b.SSID != nil && string(b.SSID) != c.ssid {
		c.ssid = string(b.SSID)
	}
	c.privacy = b.Capability&frame.CapPrivacy != 0
	c.lastSeen = s.k.Now()
	c.rssi = 0.8*c.rssi + 0.2*float64(info.RSSI)

	if s.state == associated && f.Addr2 == s.bssid {
		s.missed = 0
		s.servRSSI = c.rssi
		if b.IntervalTU > 0 {
			s.beaconInt = sim.Duration(b.IntervalTU) * TU
		}
		if s.cfg.PowerSave {
			// Sync the doze cycle to the AP's actual beacon schedule: wake
			// shortly before the next beacon, doze once the MAC drains.
			guard := 4 * sim.Millisecond
			if s.beaconInt <= 2*guard {
				guard = s.beaconInt / 4
			}
			s.armPSWake(s.beaconInt - guard)
			if frame.ParseTIMInto(&s.timScratch, b.TIM) == nil {
				s.handleTIM(&s.timScratch)
			}
			s.k.Schedule(5*sim.Millisecond, "ps-doze", s.scheduleDoze)
		}
		s.maybeRoam()
	}
}

// maybeRoam triggers a rescan when the serving signal degrades below the
// roam threshold — if a better AP exists, finishScan joins it.
func (s *STA) maybeRoam() {
	if units.DBm(s.servRSSI) >= s.cfg.RoamThreshold {
		return
	}
	// Some other known candidate must already look better by the
	// hysteresis margin, otherwise stay and tolerate the weak link. The
	// strongest qualifying one wins (ties on BSSID): which AP a roam
	// lands on must be a pure function of the candidate set, never of
	// map iteration order (determinism contract).
	var target *candidate
	//wlan:allow-nondeterminism order-independent max: total order on (rssi, bssid) makes the reduction commutative
	for _, c := range s.cands {
		if c.bssid == s.bssid || c.ssid != s.cfg.SSID {
			continue
		}
		if units.DBm(c.rssi) > units.DBm(s.servRSSI).Add(s.cfg.RoamHysteresis) &&
			(target == nil || betterCandidate(c, target)) {
			target = c
		}
	}
	if target == nil {
		return
	}
	s.Stats.Roams++
	if s.Tracer != nil {
		s.Tracer.Trace(trace.Event{At: s.k.Now(), Node: s.name(), Kind: trace.KindRoam,
			Detail: fmt.Sprintf("%v -> %v (%.1f -> %.1f dBm)", s.bssid, target.bssid, s.servRSSI, target.rssi)})
	}
	s.join(target)
}

// handleAuth reads the target AP's authentication reply in state 1.
func (s *STA) handleAuth(f *frame.Frame) {
	a, err := frame.ParseAuth(f.Body)
	if err != nil {
		return
	}
	switch {
	case a.Status == frame.StatusSuccess && (a.SeqNum == 4 || a.SeqNum == 2 && a.Algorithm == frame.AuthAlgoOpen):
		s.mgmtTries = 0
		s.k.Cancel(s.mgmtTimer)
		s.sendAssocReq()
	case a.Status == frame.StatusSuccess && a.SeqNum == 2 && a.Algorithm == frame.AuthAlgoSharedKey:
		// Return the challenge WEP-sealed (sequence 3): marshal into the
		// plaintext scratch, seal in one pass into the body scratch.
		seq3 := frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 3, Challenge: a.Challenge}
		f, ok := s.codec.seal(s.mgmt(frame.SubtypeAuth, nil), frame.AppendAuth(s.codec.clear(), &seq3))
		if !ok {
			return
		}
		s.codec.send(f)
		s.armMgmtTimer(s.sendAuth1)
	case a.Status != frame.StatusSuccess:
		s.k.Cancel(s.mgmtTimer)
		s.startScan()
	}
}

// handleAssocResp reads the target AP's association reply in state 2.
func (s *STA) handleAssocResp(f *frame.Frame) {
	s.k.Cancel(s.mgmtTimer)
	resp, err := frame.ParseAssocResp(f.Body)
	if err != nil || resp.Status != frame.StatusSuccess {
		s.startScan()
		return
	}
	s.mgmtTries = 0
	s.aid = resp.AID
	s.state = associated
	s.missed = 0
	s.Stats.Associations++
	if s.Tracer != nil {
		s.Tracer.Trace(trace.Event{At: s.k.Now(), Node: s.name(), Kind: trace.KindMgmt,
			Detail: fmt.Sprintf("associated to %v aid=%d", s.bssid, s.aid)})
	}
	s.watchBeacons()
	if s.cfg.PowerSave {
		s.enterPS()
	}
	if s.OnAssociated != nil {
		s.OnAssociated(s.bssid)
	}
}

// handleData delivers a FromDS data frame from the serving AP in state 3.
func (s *STA) handleData(f *frame.Frame) {
	payload, ok := s.codec.payload(f, &s.Stats.DecryptErrors)
	if !ok {
		return
	}
	s.Stats.RxPayloads++
	if s.cfg.PowerSave {
		s.psAwaitData = false
		if f.MoreData {
			// More buffered frames: poll again.
			s.sendPSPoll()
		} else {
			s.k.Schedule(2*sim.Millisecond, "ps-doze", s.scheduleDoze)
		}
	}
	if s.OnReceive != nil {
		s.OnReceive(f.SA(), f.DA(), payload)
	}
}

// --- beacon watchdog --------------------------------------------------------

// watchBeacons arms a periodic check that counts missed beacons.
func (s *STA) watchBeacons() {
	interval := s.beaconInt
	var check func()
	check = func() {
		if s.state != associated {
			return
		}
		s.missed++
		if s.missed > s.cfg.BeaconMissLimit {
			s.Stats.LinkLosses++
			if s.Tracer != nil {
				s.Tracer.Trace(trace.Event{At: s.k.Now(), Node: s.name(), Kind: trace.KindMgmt,
					Detail: "beacon loss, rescanning"})
			}
			s.startScan()
			return
		}
		s.k.Schedule(interval, "beacon-watchdog", check)
	}
	// handleBeacon resets missed; the watchdog increments it each interval.
	s.k.Schedule(interval+interval/2, "beacon-watchdog", check)
}

// --- power save -------------------------------------------------------------

// enterPS announces PS mode with a null frame. The station stays awake
// until its first beacon, which synchronizes the doze cycle.
func (s *STA) enterPS() {
	s.codec.send(frame.Frame{
		Type: frame.TypeData, Subtype: frame.SubtypeNullData,
		ToDS:  true,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
		PwrMgmt: true,
	})
	s.armPSWake(s.beaconInt) // failsafe until the first beacon resyncs
}

// armPSWake (re)schedules the pre-beacon wakeup.
func (s *STA) armPSWake(d sim.Duration) {
	if s.psWake.Scheduled() {
		s.k.Cancel(s.psWake)
	}
	s.psWake = s.k.Schedule(d, "ps-wake", s.psWakeFire)
}

// psWakeFire wakes the receiver for the expected beacon. If the beacon is
// lost the station simply stays awake until the next one resynchronizes
// the cycle.
func (s *STA) psWakeFire() {
	if s.state != associated || !s.cfg.PowerSave {
		return
	}
	if s.dcf.Radio().Asleep() {
		s.dcf.Radio().Wake()
	}
	s.armPSWake(s.beaconInt) // failsafe; the beacon handler replaces it
}

// scheduleDoze puts the radio to sleep when the MAC has drained and no
// polled data is outstanding.
func (s *STA) scheduleDoze() {
	if s.state != associated || !s.cfg.PowerSave {
		return
	}
	if s.dcf.Busy() || s.dcf.Radio().Transmitting() || s.psAwaitData {
		s.k.Schedule(2*sim.Millisecond, "ps-doze", s.scheduleDoze)
		return
	}
	if !s.dcf.Radio().Asleep() {
		s.dcf.Radio().Sleep()
	}
}

// wakeForTraffic ensures the radio is awake for an outbound frame.
func (s *STA) wakeForTraffic() {
	if s.dcf.Radio().Asleep() {
		s.dcf.Radio().Wake()
	}
	if s.cfg.PowerSave {
		s.k.Schedule(10*sim.Millisecond, "ps-doze", s.scheduleDoze)
	}
}

// handleTIM polls for buffered traffic announced in the beacon.
func (s *STA) handleTIM(tim *frame.TIM) {
	if !tim.HasAID(s.aid) {
		return
	}
	s.sendPSPoll()
}

func (s *STA) sendPSPoll() {
	if s.dcf.Radio().Asleep() {
		s.dcf.Radio().Wake()
	}
	s.Stats.PSPollsSent++
	// Duration carries the AID with the two high bits set, per the standard.
	s.codec.send(frame.Frame{
		Type: frame.TypeControl, Subtype: frame.SubtypePSPoll,
		Addr1: s.bssid, Addr2: s.Address(), Duration: s.aid | 0xc000,
	})
	// Stay awake for the polled frame; a newer poll replaces the wait.
	s.psAwaitData = true
	s.k.Cancel(s.psAwait)
	s.psAwait = s.k.Schedule(50*sim.Millisecond, "ps-await-timeout", s.psAwaitEnd)
	s.k.Schedule(20*sim.Millisecond, "ps-doze", s.scheduleDoze)
}

func (s *STA) name() string { return s.dcf.Radio().Name() }
