package medium

import (
	"fmt"
	"math"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/units"
)

// radioState is the transceiver state.
type radioState uint8

const (
	stateIdle radioState = iota
	stateRx
	stateTx
	stateSleep
)

func (s radioState) String() string {
	switch s {
	case stateIdle:
		return "idle"
	case stateRx:
		return "rx"
	case stateTx:
		return "tx"
	case stateSleep:
		return "sleep"
	}
	return "?"
}

// arrival is one transmission as seen by one receiver: an element of its
// transmission's arrs, live until that transmission is recycled.
type arrival struct {
	t       *transmission
	rx      *Radio
	power   units.DBm
	powerMW float64 // power in linear mW, converted once per arrival
	delay   sim.Duration
	idx     int32 // position in rx.inFlight while there
	// stale marks arrivals invalidated by a channel switch.
	stale bool
}

// span is one closed constant-interference span of a locked reception.
type span struct {
	sinr float64
	bits int
}

// segAccum folds the constant-interference timeline of a locked reception
// in O(1) memory. The frame's fate is one uniform draw against the product
// of per-span chunk successes, and most draws land far from it, so closed
// spans are recorded, not multiplied: decoded brackets the product with
// phy.Mode.ChunkBounds and runs the curves only when the draw falls between
// the brackets. When the record is full its oldest span is folded exactly
// into success, so the exact product is always success times the recorded
// spans in time order — the naive timeline's arithmetic, operation for
// operation (pinned by TestSegAccumMatchesNaiveTimeline).
type segAccum struct {
	from     sim.Time // start of the open span
	interfMW float64  // interference level of the open span
	success  float64  // product of the chunk successes folded out of spans
	minLin   float64  // minimum linear SINR over closed spans
	n        int      // recorded spans
	spans    [8]span  // closed spans not yet in success, oldest first
}

// begin opens the timeline at a lock start.
//
//wlan:hotpath
func (s *segAccum) begin(now sim.Time, interfMW float64) {
	s.from = now
	s.interfMW = interfMW
	s.success = 1
	s.minLin = math.Inf(1)
	s.n = 0
}

// decoded reports u < the chunk-success product of t over the closed spans,
// bit for bit as the exact fold would: float multiplication of non-negative
// factors is monotone, so the folded brackets bracket the folded product,
// and the exact fold runs only for a u between them.
//
//wlan:hotpath
func (s *segAccum) decoded(u float64, t *transmission) bool {
	spans := s.spans[:s.n]
	lo, hi := s.success, s.success
	for _, sp := range spans {
		l, h := t.mode.ChunkBounds(t.rate, sp.sinr, sp.bits)
		lo *= l
		hi *= h
	}
	if u < lo {
		return true
	}
	if u >= hi {
		return false
	}
	p := s.success
	for _, sp := range spans {
		p *= t.mode.ChunkSuccess(t.rate, sp.sinr, sp.bits)
	}
	return u < p
}

// boundary records an interference change at now. Same-instant changes
// overwrite the open span's level (a zero-length span contributes nothing);
// otherwise the open span is closed through foldSpan and a new one opens.
//
//wlan:hotpath
func (s *segAccum) boundary(now sim.Time, interfMW float64, r *Radio) {
	if s.from != now {
		r.foldSpan(now)
		s.from = now
	}
	s.interfMW = interfMW
}

// RadioStats aggregates per-radio counters.
type RadioStats struct {
	TxFrames   uint64
	TxAirtime  sim.Duration
	RxFrames   uint64       // successfully decoded
	RxErrors   uint64       // locked but failed FCS
	RxAirtime  sim.Duration // time spent locked on frames (ok or errored)
	RxOverlaps uint64       // arrivals that found the receiver already locked
	RxWhileTx  uint64       // arrivals discarded because the radio was transmitting
	SleepTime  sim.Duration
}

// PowerModel converts radio state residency into energy. The defaults are
// the classic Feeney/Nilsson-class WLAN card numbers.
type PowerModel struct {
	TxW    float64 // transmit draw, watts
	RxW    float64 // receive (locked) draw
	IdleW  float64 // idle listening draw
	SleepW float64 // doze draw
}

// DefaultPowerModel returns typical 802.11b card figures.
func DefaultPowerModel() PowerModel {
	return PowerModel{TxW: 1.40, RxW: 0.90, IdleW: 0.74, SleepW: 0.047}
}

// Energy returns the joules consumed by a radio with the given stats over
// elapsed virtual time. Idle time is inferred as the remainder.
func (pm PowerModel) Energy(st RadioStats, elapsed sim.Duration) float64 {
	idle := elapsed - st.TxAirtime - st.RxAirtime - st.SleepTime
	if idle < 0 {
		idle = 0
	}
	return pm.TxW*st.TxAirtime.Seconds() +
		pm.RxW*st.RxAirtime.Seconds() +
		pm.IdleW*idle.Seconds() +
		pm.SleepW*st.SleepTime.Seconds()
}

// Radio is one transceiver attached to the medium. All methods must be
// called from kernel context (inside events).
type Radio struct {
	medium   *Medium
	id       int
	name     string
	mode     *phy.Mode
	channel  int
	mobility geom.Mobility
	txPower  units.DBm

	noiseFloor   units.DBm
	noiseFloorMW float64 // noiseFloor in linear mW, converted once
	csThreshMW   float64 // csThreshold in linear mW, converted once
	capture      bool
	capMargin    units.DB

	listener Listener
	rng      *rng.Source

	state    radioState
	inFlight []*arrival
	totalMW  float64 // interference+signal power at the antenna, mW
	lock     *arrival
	seg      segAccum
	ccaBusy  bool
	txEnd    sim.Timer

	// Fast-path state: static mobility (links precomputable: row is this
	// radio's fan-out, valid while rowGen is the medium's topology
	// generation), event names built once at AddRadio, and the tx-done
	// callback allocated once.
	static      bool
	row         []fanoutEntry
	rowOrder    []int32    // row indices by (delay, index): the row's edge order
	rowFade     []fadeSlot // per row entry, its last fast-fading block (nil without fast fading)
	rowGen      uint64
	lastOwn     []int32 // edge order of this radio's last transmission that sorted its own
	nameRxStart string
	nameRxEnd   string
	nameTxDone  string
	txDoneFn    func()

	sleepStart sim.Time
	Stats      RadioStats
}

// Name returns the radio's scenario name.
func (r *Radio) Name() string { return r.name }

// Mode returns the radio's PHY mode.
func (r *Radio) Mode() *phy.Mode { return r.mode }

// Channel returns the radio's channel number.
func (r *Radio) Channel() int { return r.channel }

// TxPower returns the configured transmit power.
func (r *Radio) TxPower() units.DBm { return r.txPower }

// Position returns the radio's current position.
func (r *Radio) Position() geom.Point {
	return r.mobility.PositionAt(r.medium.kernel.Now())
}

// SetMobility replaces the mobility model. The radio may have entered or
// left detection range of any transmitter, so every fan-out row and the
// spatial index go stale.
func (r *Radio) SetMobility(m geom.Mobility) {
	r.mobility = m
	_, r.static = m.(geom.Static)
	r.medium.topoGen++
}

// SetListener installs the MAC-side event consumer.
func (r *Radio) SetListener(l Listener) {
	if l == nil {
		l = NopListener{}
	}
	r.listener = l
}

// CCABusy reports whether carrier sense currently indicates a busy medium:
// transmitting, locked onto a frame, or receiving energy above threshold.
// The energy compare runs in linear milliwatts against the pre-converted
// threshold, sparing a log10 on every arrival edge.
func (r *Radio) CCABusy() bool {
	if r.state == stateTx {
		return true
	}
	if r.state == stateSleep {
		return false
	}
	return r.lock != nil || r.totalMW >= r.csThreshMW
}

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.state == stateTx }

// Transmit puts a frame on the air at the given rate and returns its
// airtime. Transmitting while already transmitting is a MAC bug and panics.
// Transmitting while receiving abandons the receive lock (half duplex).
func (r *Radio) Transmit(f *frame.Frame, rate phy.RateIdx) sim.Duration {
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s transmit while transmitting", r.name))
	}
	if r.state == stateSleep {
		panic(fmt.Sprintf("medium: %s transmit while asleep", r.name))
	}
	// Half duplex: the frame being received, if any, is lost.
	r.lock = nil
	r.state = stateTx
	r.updateCCA() // the transmitter's own CCA goes busy for the TX duration
	airtime := r.medium.transmit(r, f, rate)
	r.Stats.TxFrames++
	r.Stats.TxAirtime += airtime
	r.txEnd = r.medium.kernel.Schedule(airtime, r.nameTxDone, r.txDoneFn)
	return airtime
}

// Sleep turns the receiver off for power saving: all in-flight and future
// arrivals are ignored until Wake.
func (r *Radio) Sleep() {
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s sleep while transmitting", r.name))
	}
	if r.state == stateSleep {
		return
	}
	r.lock = nil
	r.state = stateSleep
	r.sleepStart = r.medium.kernel.Now()
	// Energy tracking continues (arrivals still update totalMW) but CCA is
	// reported idle while asleep; recomputed on wake.
}

// Wake re-enables the receiver.
func (r *Radio) Wake() {
	if r.state != stateSleep {
		return
	}
	r.state = stateIdle
	r.Stats.SleepTime += r.medium.kernel.Now().Sub(r.sleepStart)
	r.updateCCA()
}

// Asleep reports whether the radio is in power-save sleep.
func (r *Radio) Asleep() bool { return r.state == stateSleep }

// interferenceMW returns current non-lock power at the antenna.
//
//wlan:hotpath
func (r *Radio) interferenceMW() float64 {
	if r.lock == nil {
		return r.totalMW
	}
	i := r.totalMW - r.lock.powerMW
	if i < 0 {
		i = 0
	}
	return i
}

// updateCCA emits edge events on carrier-sense transitions.
//
//wlan:hotpath
func (r *Radio) updateCCA() {
	busy := r.CCABusy()
	if busy == r.ccaBusy {
		return
	}
	r.ccaBusy = busy
	if r.state == stateSleep {
		return
	}
	if busy {
		r.listener.OnCCABusy()
	} else {
		r.listener.OnCCAIdle()
	}
}

// SetChannel retunes the radio. In-progress and in-flight receptions on the
// old channel are lost; carrier sense restarts clean.
func (r *Radio) SetChannel(ch int) {
	if ch == r.channel {
		return
	}
	if r.state == stateTx {
		panic(fmt.Sprintf("medium: %s channel switch while transmitting", r.name))
	}
	r.channel = ch
	r.lock = nil
	if r.state == stateRx {
		r.state = stateIdle
	}
	for _, a := range r.inFlight {
		a.stale = true
	}
	r.inFlight = r.inFlight[:0]
	r.totalMW = 0
	r.updateCCA()
}

// arrivalStart processes the leading edge of a transmission at this
// receiver.
func (r *Radio) arrivalStart(a *arrival) {
	if a.t.channel != r.channel {
		// The receiver retuned after this frame launched.
		a.stale = true
		return
	}
	a.idx = int32(len(r.inFlight))
	r.inFlight = append(r.inFlight, a)
	r.totalMW += a.powerMW

	switch {
	case r.state == stateTx:
		// Half duplex: arrivals during TX are never decodable.
		r.Stats.RxWhileTx++
	case r.state == stateSleep:
		// Receiver off.
	case r.lock == nil:
		// Try to lock: the preamble must be detectable, meaning the frame
		// power clears the noise floor and the instantaneous SINR is sane.
		if a.power >= r.noiseFloor {
			r.beginLock(a)
		}
	default:
		r.Stats.RxOverlaps++
		if r.capture && a.power >= r.lock.power.Add(r.capMargin) {
			// Capture: the stronger late frame steals the receiver.
			r.closeSegment()
			r.beginLock(a)
		} else {
			// Plain interference against the current lock.
			r.closeSegment()
		}
	}
	r.updateCCA()
}

func (r *Radio) beginLock(a *arrival) {
	r.lock = a
	r.state = stateRx
	r.seg.begin(r.medium.kernel.Now(), r.interferenceMW())
}

// closeSegment folds the open constant-interference span of the locked
// frame and opens a new one at the current interference level.
func (r *Radio) closeSegment() {
	if r.lock == nil {
		return
	}
	r.seg.boundary(r.medium.kernel.Now(), r.interferenceMW(), r)
}

// foldSpan closes the open span [r.seg.from, to) against the locked frame:
// its SINR and bit count, exactly as the naive end-of-lock timeline walk
// would compute them, go on the record (the oldest recorded span folding
// into the exact product if the record is full), and into the running SINR
// minimum.
//
//wlan:hotpath
func (r *Radio) foldSpan(to sim.Time) {
	a, s := r.lock, &r.seg
	dur := to.Sub(s.from)
	if dur <= 0 {
		return
	}
	sinr := a.powerMW / (r.noiseFloorMW + s.interfMW)
	bits := int(float64(a.t.bits) * float64(dur) / float64(a.t.airtime))
	if s.n == len(s.spans) {
		s.success *= a.t.mode.ChunkSuccess(a.t.rate, s.spans[0].sinr, s.spans[0].bits)
		copy(s.spans[:], s.spans[1:])
		s.n--
	}
	s.spans[s.n] = span{sinr: sinr, bits: bits}
	s.n++
	if sinr < s.minLin {
		s.minLin = sinr
	}
}

// arrivalEnd processes the trailing edge of a transmission.
func (r *Radio) arrivalEnd(a *arrival) {
	if a.stale {
		return
	}
	// Swap-remove from the in-flight set, whose order nothing reads.
	n := len(r.inFlight) - 1
	if last := r.inFlight[n]; last != a {
		last.idx = a.idx
		r.inFlight[a.idx] = last
	}
	r.inFlight = r.inFlight[:n]
	r.totalMW -= a.powerMW
	if r.totalMW < 1e-18 {
		r.totalMW = 0
	}

	if r.lock == a {
		r.finishLock(a)
	} else if r.lock != nil {
		// Interferer ended mid-lock: new segment with less interference.
		r.closeSegment()
	}
	r.updateCCA()
}

// finishLock closes the final span, settles the locked frame's fate with the
// radio's one uniform draw per finished lock — by the brackets when they
// decide it, by the exact product otherwise (segAccum.decoded) — and
// notifies the listener.
func (r *Radio) finishLock(a *arrival) {
	now := r.medium.kernel.Now()
	r.Stats.RxAirtime += a.t.airtime
	r.foldSpan(now)
	ok := r.seg.decoded(r.rng.Float64(), a.t)
	// The minimum SINR was tracked in linear space; log10 is monotone, so
	// one conversion of the minimum matches converting every span.
	minSINR := units.DB(1000)
	if !math.IsInf(r.seg.minLin, 1) {
		if db := units.DBFromLinear(r.seg.minLin); db < minSINR {
			minSINR = db
		}
	}
	r.lock = nil
	r.state = stateIdle

	info := RxInfo{
		RSSI:    a.power,
		MinSINR: minSINR,
		Rate:    a.t.rate,
		Mode:    a.t.mode,
		Airtime: a.t.airtime,
		End:     now,
	}
	if ok {
		f := r.medium.decodeFrame(a.t)
		r.Stats.RxFrames++
		if tr := r.medium.Tracer; tr != nil {
			tr.Trace(trace.Event{
				At: now, Node: r.name, Kind: trace.KindRxOK, Frame: f,
				Detail: fmt.Sprintf("rssi=%v sinr=%v", info.RSSI, info.MinSINR),
			})
		}
		r.listener.OnRxFrame(f, info)
	} else {
		r.Stats.RxErrors++
		if tr := r.medium.Tracer; tr != nil {
			tr.Trace(trace.Event{
				At: now, Node: r.name, Kind: trace.KindRxErr,
				Detail: fmt.Sprintf("rssi=%v sinr=%v from=%s", info.RSSI, info.MinSINR, a.t.tx.name),
			})
		}
		r.listener.OnRxError(info)
	}
}
