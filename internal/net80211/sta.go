package net80211

import (
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
	// Channels is the scan list; default {1}.
	Channels []int
	// WEPKey enables shared-key authentication and WEP data privacy.
	WEPKey wep.Key
	// WEPKeyID is the key slot (0-3) stamped into sealed frames and
	// required of received ones; a frame carrying a different key ID is a
	// decrypt error, not a candidate for trying the wrong key.
	WEPKeyID byte
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
	// ActiveScan sends probe requests on each channel instead of waiting a
	// full beacon interval, shrinking the dwell to probeDwell.
	ActiveScan bool
}

// Per-channel scan dwells: a passive scan waits just over one beacon
// interval, an active scan this long after its probe request.
const (
	scanDwell  = 120 * sim.Millisecond
	probeDwell = 30 * sim.Millisecond
)

// staState is the join state machine.
type staState uint8

// States.
const (
	staIdle staState = iota
	staScanning
	staAuthenticating
	staAssociating
	staAssociated
)

func (s staState) String() string {
	switch s {
	case staIdle:
		return "idle"
	case staScanning:
		return "scanning"
	case staAuthenticating:
		return "authenticating"
	case staAssociating:
		return "associating"
	case staAssociated:
		return "associated"
	}
	return "?"
}

// candidate is a BSS discovered by scanning.
type candidate struct {
	bssid    frame.MACAddr
	ssid     string
	channel  int
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

	state    staState
	cands    map[frame.MACAddr]*candidate
	bssid    frame.MACAddr
	aid      uint16
	servRSSI float64 // EWMA of serving AP beacon RSSI
	missed   int

	scanIdx   int
	homeCh    int
	mgmtTimer sim.Timer
	mgmtTries int

	ivs wep.IVCounter
	// tx pools outgoing data frames/bodies; wepOpen is the rx decrypt
	// scratch. Both make steady-state traffic allocation-free.
	tx      *txPool
	wepOpen []byte
	// ssidBytes and rates are the SSID and supported-rates IE payloads,
	// fixed at construction; management frames append them into pooled TX
	// bodies so scanning and (re)joining marshal nothing on the heap.
	ssidBytes []byte
	rates     []byte
	psWake    sim.Timer // pending pre-beacon wakeup
	// beaconInt is the serving AP's beacon interval, learned from beacons.
	beaconInt sim.Duration
	// psAwaitSeq tokens the outstanding PS-Poll data wait: the station
	// must not doze between PS-Poll and the buffered frame's arrival.
	psAwaitSeq  uint64
	psAwaitData bool
	// timScratch is the reusable TIM decode target of the beacon hot path
	// (see handleBeacon): idle-BSS beacon reception allocates nothing.
	timScratch frame.TIM

	// OnReceive delivers application payloads.
	OnReceive DeliveryFunc
	// OnAssociated fires after every successful (re)association.
	OnAssociated func(bssid frame.MACAddr)
	Tracer       trace.Tracer
	Stats        STAStats
}

// NewSTA builds a station on an existing DCF and starts scanning.
func NewSTA(k *sim.Kernel, dcf *mac.DCF, cfg STAConfig) *STA {
	if len(cfg.Channels) == 0 {
		cfg.Channels = []int{dcf.Radio().Channel()}
	}
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
		tx:        newTxPool(dcf),
		ssidBytes: []byte(cfg.SSID),
		rates:     []byte{frame.RateByte(2, true)},
		beaconInt: 100 * TU,
		Tracer:    trace.Nop{},
	}
	dcf.SetReceiver(s.receive)
	k.Schedule(0, "sta-start", s.startScan)
	return s
}

// Address returns the station MAC address.
func (s *STA) Address() frame.MACAddr { return s.dcf.Address() }

// MAC exposes the underlying DCF.
func (s *STA) MAC() *mac.DCF { return s.dcf }

// Associated reports whether the station is associated.
func (s *STA) Associated() bool { return s.state == staAssociated }

// BSSID returns the serving AP address (zero when unassociated).
func (s *STA) BSSID() frame.MACAddr { return s.bssid }

func (s *STA) privacy() bool { return len(s.cfg.WEPKey) > 0 }

// tracing reports whether a real tracer is attached; see (*AP).tracing.
func (s *STA) tracing() bool {
	_, nop := s.Tracer.(trace.Nop)
	return !nop
}

// Send transmits an application payload to dst through the serving AP. It
// returns false when the queue is full or the station is unassociated; the
// queue is asked first, so a refused send touches nothing but the MAC's
// QueueDrops — no doze timer re-armed, no WEP IV consumed. The outgoing frame
// and its body come from the station's transmit pool: steady-state sends
// allocate nothing, and ownership moves to the MAC on Enqueue (see mac
// package docs on transmit frame ownership).
func (s *STA) Send(dst frame.MACAddr, payload []byte) bool {
	if !s.dcf.Admit() || s.state != staAssociated {
		return false
	}
	s.wakeForTraffic()
	slot := s.tx.data(frame.Frame{
		ToDS:  true,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: dst,
		PwrMgmt: s.cfg.PowerSave,
	}, payload, s.cfg.WEPKey, s.cfg.WEPKeyID, &s.ivs)
	if slot == nil {
		return false
	}
	s.dcf.Enqueue(&slot.f) // admitted: accepted
	s.tx.commit()
	s.Stats.TxPayloads++
	return true
}

// --- scanning -------------------------------------------------------------

func (s *STA) startScan() {
	if s.dcf.Radio().Transmitting() {
		s.k.Schedule(5*sim.Millisecond, "scan-retry", s.startScan)
		return
	}
	s.state = staScanning
	s.Stats.Scans++
	s.scanIdx = 0
	s.cands = make(map[frame.MACAddr]*candidate)
	if s.dcf.Radio().Asleep() {
		s.dcf.Radio().Wake()
	}
	s.scanStep()
}

func (s *STA) scanStep() {
	if s.state != staScanning {
		return
	}
	if s.scanIdx >= len(s.cfg.Channels) {
		s.finishScan()
		return
	}
	ch := s.cfg.Channels[s.scanIdx]
	s.scanIdx++
	if s.dcf.Radio().Transmitting() {
		s.scanIdx-- // retry the same channel shortly
		s.k.Schedule(2*sim.Millisecond, "scan-wait", s.scanStep)
		return
	}
	s.dcf.Radio().SetChannel(ch)
	dwell := scanDwell
	if s.cfg.ActiveScan {
		s.sendProbeReq()
		dwell = probeDwell
	}
	s.k.Schedule(dwell, "scan-dwell", s.scanStep)
}

// sendProbeReq broadcasts a directed probe request on the current channel.
// The body is two cached IE payloads appended into a pooled TX body, so an
// active scan sweep allocates nothing per probe.
func (s *STA) sendProbeReq() {
	slot := s.tx.slot()
	body := frame.AppendIE(slot.body[:0], frame.IESSID, s.ssidBytes)
	slot.body = frame.AppendIE(body, frame.IESupportedRates, s.rates)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeProbeReq,
		Addr1: frame.Broadcast, Addr2: s.Address(), Addr3: frame.Broadcast,
		Body: slot.body,
	}
	if s.dcf.Enqueue(&slot.f) {
		s.tx.commit()
	}
}

func (s *STA) finishScan() {
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
	return lowerMAC(a.bssid, b.bssid)
}

func lowerMAC(a, b frame.MACAddr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// --- join state machine -----------------------------------------------------

func (s *STA) join(c *candidate) {
	if s.dcf.Radio().Transmitting() {
		s.k.Schedule(2*sim.Millisecond, "join-wait", func() { s.join(c) })
		return
	}
	s.state = staAuthenticating
	s.bssid = c.bssid
	s.homeCh = c.channel
	s.servRSSI = c.rssi
	s.missed = 0
	s.dcf.Radio().SetChannel(c.channel)
	s.mgmtTries = 0
	s.sendAuth1()
}

func (s *STA) sendAuth1() {
	s.Stats.AuthAttempts++
	algo := uint16(frame.AuthAlgoOpen)
	if s.privacy() {
		algo = frame.AuthAlgoSharedKey
	}
	a := frame.Auth{Algorithm: algo, SeqNum: 1}
	slot := s.tx.slot()
	slot.body = frame.AppendAuth(slot.body[:0], &a)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeAuth,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
		Body: slot.body,
	}
	if s.dcf.Enqueue(&slot.f) {
		s.tx.commit()
	}
	s.armMgmtTimer(s.sendAuth1)
}

func (s *STA) sendAssocReq() {
	s.state = staAssociating
	req := frame.AssocReq{
		Capability: frame.CapESS,
		ListenIntv: 10,
		SSID:       s.ssidBytes,
		Rates:      s.rates,
	}
	slot := s.tx.slot()
	slot.body = frame.AppendAssocReq(slot.body[:0], &req)
	slot.f = frame.Frame{
		Type: frame.TypeManagement, Subtype: frame.SubtypeAssocReq,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
		Body: slot.body,
	}
	if s.dcf.Enqueue(&slot.f) {
		s.tx.commit()
	}
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

func (s *STA) receive(f *frame.Frame, info medium.RxInfo) {
	switch f.Type {
	case frame.TypeManagement:
		s.handleMgmt(f, info)
	case frame.TypeData:
		s.handleData(f)
	}
}

func (s *STA) handleMgmt(f *frame.Frame, info medium.RxInfo) {
	switch f.Subtype {
	case frame.SubtypeBeacon, frame.SubtypeProbeResp:
		s.handleBeacon(f, info)
	case frame.SubtypeAuth:
		s.handleAuth(f)
	case frame.SubtypeAssocResp, frame.SubtypeReassocResp:
		s.handleAssocResp(f)
	case frame.SubtypeDeauth, frame.SubtypeDisassoc:
		if s.state == staAssociated && f.Addr2 == s.bssid {
			s.Stats.LinkLosses++
			s.startScan()
		}
	}
}

// handleBeacon consumes a beacon/probe-response through frame.ParseBeacon,
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
		c = &candidate{bssid: f.Addr2, channel: s.dcf.Radio().Channel()}
		s.cands[f.Addr2] = c
		c.rssi = float64(info.RSSI)
	}
	if b.SSID != nil && string(b.SSID) != c.ssid {
		c.ssid = string(b.SSID)
	}
	c.privacy = b.Capability&frame.CapPrivacy != 0
	c.lastSeen = s.k.Now()
	c.rssi = 0.8*c.rssi + 0.2*float64(info.RSSI)
	if b.Channel != 0 {
		c.channel = int(b.Channel)
	}

	if s.state == staAssociated && f.Addr2 == s.bssid {
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
	if s.tracing() {
		s.Tracer.Trace(trace.Event{At: s.k.Now(), Node: s.name(), Kind: trace.KindRoam,
			Detail: fmt.Sprintf("%v -> %v (%.1f -> %.1f dBm)", s.bssid, target.bssid, s.servRSSI, target.rssi)})
	}
	s.join(target)
}

func (s *STA) handleAuth(f *frame.Frame) {
	if s.state != staAuthenticating || f.Addr2 != s.bssid {
		return
	}
	a, err := frame.ParseAuth(f.Body)
	if err != nil {
		return
	}
	switch {
	case a.SeqNum == 2 && a.Status == frame.StatusSuccess && a.Algorithm == frame.AuthAlgoOpen:
		s.mgmtTries = 0
		s.k.Cancel(s.mgmtTimer)
		s.sendAssocReq()
	case a.SeqNum == 2 && a.Status == frame.StatusSuccess && a.Algorithm == frame.AuthAlgoSharedKey:
		// Return the challenge WEP-sealed (sequence 3): marshal into the
		// plaintext scratch, seal in one pass into a pooled TX body.
		seq3 := frame.Auth{Algorithm: frame.AuthAlgoSharedKey, SeqNum: 3, Challenge: a.Challenge}
		s.tx.snap = frame.AppendAuth(s.tx.snap[:0], &seq3)
		slot := s.tx.slot()
		sealed, err := wep.SealTo(slot.body[:0], s.cfg.WEPKey, s.ivs.Next(), s.cfg.WEPKeyID, s.tx.snap)
		if err != nil {
			return
		}
		slot.body = sealed
		slot.f = frame.Frame{
			Type: frame.TypeManagement, Subtype: frame.SubtypeAuth,
			Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
			Body:      slot.body,
			Protected: true,
		}
		if s.dcf.Enqueue(&slot.f) {
			s.tx.commit()
		}
		s.armMgmtTimer(s.sendAuth1)
	case a.SeqNum == 4 && a.Status == frame.StatusSuccess:
		s.mgmtTries = 0
		s.k.Cancel(s.mgmtTimer)
		s.sendAssocReq()
	case a.Status != frame.StatusSuccess:
		s.k.Cancel(s.mgmtTimer)
		s.startScan()
	}
}

func (s *STA) handleAssocResp(f *frame.Frame) {
	if s.state != staAssociating || f.Addr2 != s.bssid {
		return
	}
	resp, err := frame.ParseAssocResp(f.Body)
	if err != nil || resp.Status != frame.StatusSuccess {
		s.k.Cancel(s.mgmtTimer)
		s.startScan()
		return
	}
	s.k.Cancel(s.mgmtTimer)
	s.mgmtTries = 0
	s.aid = resp.AID
	s.state = staAssociated
	s.missed = 0
	s.Stats.Associations++
	if s.tracing() {
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

func (s *STA) handleData(f *frame.Frame) {
	if s.state != staAssociated || !f.FromDS || f.Addr2 != s.bssid {
		return
	}
	body := f.Body
	if f.Protected {
		if !s.privacy() {
			return
		}
		plain, err := wep.OpenTo(s.wepOpen[:0], s.cfg.WEPKey, s.cfg.WEPKeyID, body)
		if err != nil {
			s.Stats.DecryptErrors++
			return
		}
		s.wepOpen = plain
		body = plain
	}
	et, payload, err := frame.DecapSNAP(body)
	if err != nil || et != EtherTypePayload {
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
		if s.state != staAssociated {
			return
		}
		s.missed++
		if s.missed > s.cfg.BeaconMissLimit {
			s.Stats.LinkLosses++
			s.Tracer.Trace(trace.Event{At: s.k.Now(), Node: s.name(), Kind: trace.KindMgmt,
				Detail: "beacon loss, rescanning"})
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
// until its first beacon, which synchronizes the doze cycle. The frame
// comes from the transmit pool like every other send path (txownership):
// a station cycling in and out of PS forever allocates nothing.
func (s *STA) enterPS() {
	slot := s.tx.slot()
	slot.f = frame.Frame{
		Type: frame.TypeData, Subtype: frame.SubtypeNullData,
		ToDS:  true,
		Addr1: s.bssid, Addr2: s.Address(), Addr3: s.bssid,
		PwrMgmt: true,
	}
	if s.dcf.Enqueue(&slot.f) {
		s.tx.commit()
	}
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
	if s.state != staAssociated || !s.cfg.PowerSave {
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
	if s.state != staAssociated || !s.cfg.PowerSave {
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
	// Pooled like every send path (txownership): Duration carries the AID
	// with the two high bits set, per the standard.
	slot := s.tx.slot()
	slot.f = frame.Frame{
		Type: frame.TypeControl, Subtype: frame.SubtypePSPoll,
		Addr1: s.bssid, Addr2: s.Address(), Duration: s.aid | 0xc000,
	}
	if s.dcf.Enqueue(&slot.f) {
		s.tx.commit()
	}
	// Stay awake for the polled frame; a token guards against a stale
	// timeout clearing a newer wait.
	s.psAwaitData = true
	s.psAwaitSeq++
	seq := s.psAwaitSeq
	s.k.Schedule(50*sim.Millisecond, "ps-await-timeout", func() {
		if s.psAwaitSeq == seq {
			s.psAwaitData = false
		}
	})
	s.k.Schedule(20*sim.Millisecond, "ps-doze", s.scheduleDoze)
}

func (s *STA) name() string { return s.dcf.Radio().Name() }
