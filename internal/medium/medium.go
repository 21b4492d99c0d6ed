// Package medium implements the shared wireless channel: it connects radios
// through a propagation model, tracks every in-flight transmission, computes
// piecewise SINR at each receiver, applies the PHY error model and capture
// rules, and drives the carrier-sense (CCA) signals the MAC listens to.
//
// The medium is the substitute for over-the-air hardware: a MAC attached to
// a Radio observes exactly the signals a driver sees — CCA busy/idle edges,
// decoded frames with RSSI/SINR metadata, FCS errors and TX completions.
//
// # Fan-out rows and range pruning
//
// Every static transmitter owns a lazily built fan-out row: the
// ascending-id list of static receivers it can reach, with received power,
// its linear-milliwatt conversion and propagation delay computed once. A
// transmission from a static radio is a linear walk over that row, merged
// in id order with its mobile candidates (if any), whose physics is
// computed per transmission. On channels without fast fading a row holds
// only the receivers that pass the detection-margin filter; with fast
// fading it holds every static radio, and the fading gain, the filter and
// the milliwatt conversion are applied once per coherence block
// (spectrum.Fading.Block): beside each entry the row remembers the block it
// last drew in and what came of it. Mobile transmitters compute every link
// per transmission.
//
// Rows are built from, and mobile transmitters walk, one candidate walk
// over the radios in ascending id: static radios from flat position arrays,
// mobile ones at their geom.Mobility position at the transmission's start.
// On fading-free channels whose path-loss model can bound detection range
// (spectrum.RangeBounder) the walk keeps only radios whose ground distance
// is within the transmitter's worst-case range; otherwise it keeps every
// radio. One topology generation — advanced by AddRadio and SetMobility,
// both of which can change who reaches whom — stales every row, the
// position arrays and the ranges; each is rebuilt on next use.
// Pruning is always a conservative superset of the exact per-receiver power
// filter, and receivers are walked in ascending radio-id order, so delivered
// arrivals and event order are bit-identical to the all-pairs walk.
//
// # Edge cursors
//
// A transmission owns its receivers. Its arrivals sit in one slice in
// ascending receiver id, and instead of two kernel events per receiver the
// heap holds at most two per transmission: a leading-edge and a trailing-edge
// cursor, each of which walks its edges in (delay, receiver index) order. At
// transmit time the medium reserves the block of schedule-order numbers the
// per-receiver events would have taken (sim.Kernel.ReserveSeq) and every edge
// runs under the (time, seq) and the rx-start:/rx-end: name its receiver's
// own event would have had, so event order, same-tick interleaving with MAC
// timers and the event count are those of per-receiver scheduling. A cursor
// handles an edge — arrivalStart or arrivalEnd, upcalls included — and then
// asks the kernel whether its next edge is the next event to run
// (sim.Kernel.Advance): most are, and cost no heap operation; when a timer,
// another cursor or the run's deadline comes first the cursor queues itself
// under that edge's key and returns. Heap depth is O(transmissions on the air
// + timers), not O(transmissions × fan-out). A static row carries its edge
// order, computed when the row is built; a transmission whose arrivals are
// not exactly its row (an entry filtered by fading, a mobile receiver merged
// in, a mobile transmitter) sorts its own, starting from its transmitter's
// last, in a buffer sized to the arrivals. Radios point into the arrival
// slice while an arrival is in flight, so it is sized before the walk to the
// walk's candidates (row entries and the candidates off the row), and
// a transmission is recycled only when its trailing cursor has walked the
// last edge.
package medium

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// RxInfo carries reception metadata to the MAC, mirroring what a driver
// reads from its RX descriptor.
type RxInfo struct {
	RSSI    units.DBm
	MinSINR units.DB // worst SINR over the frame
	Rate    phy.RateIdx
	Mode    *phy.Mode
	Airtime sim.Duration
	End     sim.Time // when the frame ended on air at the receiver
}

// Listener is the upward interface of a radio; the MAC implements it.
type Listener interface {
	// OnCCABusy fires when carrier sense transitions idle→busy.
	OnCCABusy()
	// OnCCAIdle fires when carrier sense transitions busy→idle.
	OnCCAIdle()
	// OnRxFrame delivers a successfully decoded frame. The frame is a
	// pooled zero-copy view whose body aliases the transmission's wire
	// buffer: it is valid only for the duration of the callback. Listeners
	// that keep the frame, its body, or any slice derived from the body
	// past their return must deep-copy (frame.Frame.Clone).
	OnRxFrame(f *frame.Frame, info RxInfo)
	// OnRxError reports a locked frame that failed its FCS.
	OnRxError(info RxInfo)
	// OnTxDone reports the end of this radio's own transmission.
	OnTxDone()
}

// NopListener discards all radio events; useful for passive nodes and tests.
type NopListener struct{}

func (NopListener) OnCCABusy()                     {}
func (NopListener) OnCCAIdle()                     {}
func (NopListener) OnRxFrame(*frame.Frame, RxInfo) {}
func (NopListener) OnRxError(RxInfo)               {}
func (NopListener) OnTxDone()                      {}

// transmission is one MPDU on the air, and owns its receivers: arrs holds
// one arrival per receiver in ascending receiver id, and two kernel events —
// a leading-edge and a trailing-edge cursor — walk them in arrival order
// (see fanout). Transmissions are pooled, with the capacity of wire, arrs
// and own: Radio.inFlight and Radio.lock point into arrs, so arrs is sized
// before the walk, never grows on the air, and returns to the pool only
// when the trailing cursor has walked its last edge.
type transmission struct {
	id      uint64
	tx      *Radio
	mode    *phy.Mode
	rate    phy.RateIdx
	wire    []byte
	bits    int
	start   sim.Time
	airtime sim.Duration
	txPos   geom.Point
	arrs    []arrival
	room    int // the most candidates arrivalRoom has been asked to hold
	// order lists arrs indices by (delay, index) — the pop order of the
	// per-receiver events the cursors stand for, arrival i's leading edge
	// at seq0+2i and trailing edge at seq0+2i+1. It is the transmitter's
	// rowOrder when arrs is exactly its row, otherwise own.
	order, own []int32
	seq0       uint64
	pos        [2]int // the leading- and the trailing-edge cursor's next position in order
	// decoded caches the parsed wire image: every receiver that decodes
	// this transmission sees the same bytes, and received frames are
	// read-only views by convention (rx paths Clone what they keep), so one
	// zero-copy UnmarshalInto serves the whole fan-out. The Frame struct is
	// pooled with the transmission and its Body aliases wire, so it is only
	// valid until the transmission's last trailing edge.
	decoded *frame.Frame
}

// linkIDBits is the width of a radio id inside a link id and a fan-out
// entry; AddRadio refuses to grow a medium past 1<<linkIDBits radios.
const linkIDBits = 20

// linkID names the directed link tx→rx to the shadowing and fading
// processes.
func linkID(tx, rx *Radio) uint64 { return uint64(tx.id)<<linkIDBits | uint64(rx.id) }

// fanoutEntry is one static receiver in a static transmitter's fan-out row:
// received power excluding fast fading, its linear-milliwatt conversion (a
// math.Pow otherwise re-done per arrival) and the propagation delay, packed
// above the receiver id so an entry is 24 bytes.
type fanoutEntry struct {
	power   units.DBm
	powerMW float64
	rxDelay uint64 // delay<<linkIDBits | rx id
}

func (e *fanoutEntry) rx() int             { return int(e.rxDelay & (1<<linkIDBits - 1)) }
func (e *fanoutEntry) delay() sim.Duration { return sim.Duration(e.rxDelay >> linkIDBits) }

// fadeSlot is what a row entry's link came to in one fast-fading coherence
// block: the faded power and its milliwatts, or powerMW < 0 when the power
// filter dropped it. key is the block index plus one: a zero slot matches none.
type fadeSlot struct {
	key     uint64
	power   units.DBm
	powerMW float64
}

// Medium couples radios to the propagation model.
type Medium struct {
	kernel *sim.Kernel
	model  *spectrum.Model
	radios []*Radio
	nextTx uint64

	// Tracer receives frame-level events; nil disables tracing.
	Tracer trace.Tracer

	rng *rng.Source

	// Counters for diagnostics. Plain fields bumped on the fast path;
	// internal/core flushes deltas into the metrics registry at run-chunk
	// boundaries, so transmit never pays an atomic.
	Transmissions    uint64
	FanoutCandidates uint64 // candidate receivers walked per transmission
	FanoutDelivered  uint64 // arrivals actually scheduled
	LinkCacheHits    uint64 // fan-out row entries served
	LinkCacheMisses  uint64 // static-pair physics computed while (re)building rows
	GridMigrations   uint64 // always zero: the medium keeps no cell index; kept for readers that report it

	// Fast-path state: pooled transmissions/decoded frames.
	txPool    []*transmission
	framePool []*frame.Frame
	noFast    bool // no fast fading: row power is the exact rx power

	// topoGen is the topology generation: fan-out rows (Radio.row) and the
	// spatial state are valid only for the generation they were built in.
	topoGen    uint64
	rowScratch []fanoutEntry // buildRow scratch: rows are stored at exact size
	orderSlab  []int32       // what orderRoom has left to hand out

	// sp is the static and mobile lists and detection ranges the
	// candidate walk reads (see candidates.go).
	sp spatial
}

// New creates an empty medium on the kernel with the given channel model.
func New(k *sim.Kernel, model *spectrum.Model, src *rng.Source) *Medium {
	m := &Medium{
		kernel: k,
		model:  model,
		rng:    src.Split("medium"),
	}
	_, m.noFast = model.Fast.(spectrum.NoFading)
	// Range pruning needs loss to be a pure, invertible function of
	// distance: no fast fading, no shadowing, and a range-boundable
	// path-loss model. Shadowing is excluded even though it is
	// time-invariant — its per-link Gaussian offset is unbounded, so no
	// distance can guarantee a link stays below the detection threshold.
	if rb, ok := model.PathLoss.(spectrum.RangeBounder); ok && m.noFast && model.Shadow == nil {
		m.sp.bounder = rb
		m.sp.enabled = true
	}
	return m
}

// RadioConfig parameterises a new radio.
type RadioConfig struct {
	Name     string
	Mode     *phy.Mode
	Mobility geom.Mobility
	TxPower  units.DBm
	// CaptureMargin is the power advantage a later frame needs to steal the
	// receiver lock: capture is on when it is above zero, and zero means
	// no capture.
	CaptureMargin units.DB
	Listener      Listener
}

// Every radio's receiver noise figure and energy-detect busy threshold.
const (
	noiseFigure units.DB  = 7
	csThreshold units.DBm = -82
)

// AddRadio registers a radio on the medium.
func (m *Medium) AddRadio(cfg RadioConfig) *Radio {
	if cfg.Mode == nil {
		panic("medium: radio needs a PHY mode")
	}
	if len(m.radios) >= 1<<linkIDBits {
		panic(fmt.Sprintf("medium: more than %d radios: link ids would alias", 1<<linkIDBits))
	}
	if cfg.Mobility == nil {
		cfg.Mobility = geom.Static{}
	}
	if cfg.Listener == nil {
		cfg.Listener = NopListener{}
	}
	r := &Radio{
		medium:      m,
		id:          len(m.radios),
		name:        cfg.Name,
		mode:        cfg.Mode,
		mobility:    cfg.Mobility,
		txPower:     cfg.TxPower,
		noiseFloor:  cfg.Mode.NoiseFloorDBm(noiseFigure),
		csThreshMW:  csThreshold.MilliWatt(),
		capMargin:   cfg.CaptureMargin,
		listener:    cfg.Listener,
		rng:         m.rng.Split("radio:" + cfg.Name),
		nameRxStart: "rx-start:" + cfg.Name,
		nameRxEnd:   "rx-end:" + cfg.Name,
		nameTxDone:  "tx-done:" + cfg.Name,
	}
	r.noiseFloorMW = linearOrZero(r.noiseFloor)
	_, r.static = cfg.Mobility.(geom.Static)
	r.txDoneFn = func() {
		r.state = stateIdle
		r.updateCCA()
		r.listener.OnTxDone()
	}
	m.radios = append(m.radios, r)
	// The new radio may appear in any transmitter's fan-out, and its noise
	// floor can tighten every detection range.
	m.topoGen++
	return r
}

// --- object pools ---------------------------------------------------------

func (m *Medium) getTransmission() *transmission {
	if n := len(m.txPool); n > 0 {
		t := m.txPool[n-1]
		m.txPool = m.txPool[:n-1]
		return t
	}
	return &transmission{}
}

func (m *Medium) putTransmission(t *transmission) {
	t.tx = nil
	t.mode = nil
	t.order = nil
	if t.decoded != nil {
		t.decoded.Body = nil // drop the wire alias before pooling
		m.framePool = append(m.framePool, t.decoded)
		t.decoded = nil
	}
	m.txPool = append(m.txPool, t) // t.wire keeps its capacity for reuse
}

// decodeFrame returns (decoding on first use) the transmission's parsed
// frame: a pooled Frame whose body aliases the wire buffer. Zero-alloc in
// steady state — UnmarshalInto overwrites every field of the pooled struct.
func (m *Medium) decodeFrame(t *transmission) *frame.Frame {
	if t.decoded != nil {
		return t.decoded
	}
	var f *frame.Frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame.Frame{}
	}
	if err := frame.UnmarshalInto(f, t.wire); err != nil {
		// The wire image was built by AppendWire, so this means model
		// corruption, not channel noise.
		panic("medium: undecodable wire image: " + err.Error())
	}
	t.decoded = f
	return f
}

// --- edge cursors ---------------------------------------------------------

// sortEdges sorts order, a permutation of arrs' indices, by (delay, index).
// It is an insertion sort: a transmitter's order changes little from one
// transmission to the next, and from an order that is nearly right the sort
// is linear. Keys are a strict total order, so where it starts from cannot
// change where it ends.
//
//wlan:hotpath
func sortEdges(order []int32, arrs []arrival) {
	for i := 1; i < len(order); i++ {
		x := order[i]
		d := arrs[x].delay
		j := i
		for ; j > 0; j-- {
			p := order[j-1]
			if pd := arrs[p].delay; pd < d || pd == d && p < x {
				break
			}
			order[j] = p
		}
		order[j] = x
	}
}

// orderRoom returns buf with length n. One too small is replaced by one of
// exactly n, cut from a slab so that a medium allocates once per 32
// replacements.
func (m *Medium) orderRoom(buf []int32, n int) []int32 {
	if cap(buf) < n {
		if len(m.orderSlab) < n {
			m.orderSlab = make([]int32, 32*n)
		}
		buf, m.orderSlab = m.orderSlab[:0:n], m.orderSlab[n:]
	}
	return buf[:n]
}

// arrivalRoom returns t.arrs emptied, with room for n arrivals — every
// candidate of the walk — or a replacement that size (up to its size
// class), so the walk never grows it.
func (m *Medium) arrivalRoom(t *transmission, n int) []arrival {
	t.room = max(t.room, n)
	if cap(t.arrs) < n {
		return slices.Grow([]arrival(nil), n)
	}
	return t.arrs[:0]
}

// edgeKey is the (at, seq, name) of the next edge of cursor e — 0 the
// leading-edge cursor, 1 the trailing: those its receiver's own event would
// have had.
//
//wlan:hotpath
func (t *transmission) edgeKey(e int) (sim.Time, uint64, string) {
	i := t.order[t.pos[e]]
	a := &t.arrs[i]
	if e == 0 {
		return t.start.Add(a.delay), t.seq0 + 2*uint64(i), a.rx.nameRxStart
	}
	return t.start.Add(a.delay + t.airtime), t.seq0 + 2*uint64(i) + 1, a.rx.nameRxEnd
}

// queue puts cursor e into the kernel's queue under its next edge's key.
//
//wlan:hotpath
func (t *transmission) queue(k *sim.Kernel, e int) {
	at, seq, name := t.edgeKey(e)
	if e == 0 {
		k.ScheduleArgSeq(at, seq, name, leadEdgeFn, t)
	} else {
		k.ScheduleArgSeq(at, seq, name, trailEdgeFn, t)
	}
}

// walk is cursor e. It handles its receiver's edge and then asks the kernel
// whether its next edge is the next event to run (sim.Kernel.Advance): if so
// it is now that event and walks on, if not — a timer, another cursor or the
// run's deadline comes first — it queues itself and returns. The upcall comes
// before the question, so what it scheduled is in the answer. The last
// trailing edge is the transmission's last event.
//
//wlan:hotpath
func (t *transmission) walk(e int) {
	m := t.tx.medium
	for {
		if a := &t.arrs[t.order[t.pos[e]]]; e == 0 {
			a.rx.arrivalStart(a)
		} else {
			a.rx.arrivalEnd(a)
		}
		if t.pos[e]++; t.pos[e] == len(t.order) {
			if e == 1 {
				m.putTransmission(t)
			}
			return
		}
		if !m.kernel.Advance(t.edgeKey(e)) {
			t.queue(m.kernel, e)
			return
		}
	}
}

func leadEdgeFn(x any)  { x.(*transmission).walk(0) }
func trailEdgeFn(x any) { x.(*transmission).walk(1) }

// Radios returns all registered radios.
func (m *Medium) Radios() []*Radio { return m.radios }

// detectionMarginDB is how far below a receiver's noise floor an arrival
// may be and still be tracked as interference energy.
const detectionMarginDB = 10

// tooWeak reports whether an arrival at power is so far below rx's noise
// floor that it is irrelevant both as signal and as interference.
func (m *Medium) tooWeak(power units.DBm, rx *Radio) bool {
	return float64(power) < float64(rx.noiseFloor)-detectionMarginDB
}

// propDelay is the time light takes to cover d metres.
func propDelay(d float64) sim.Duration {
	return sim.Duration(d / units.SpeedOfLight * float64(sim.Second))
}

// buildRow computes static transmitter r's fan-out row from its static
// candidates. An entry reproduces the per-transmission computation
// bit-for-bit: it stores txPower-loss+shadow with the same operation order
// RxPowerFrom uses, and fast fading (when present) is applied per coherence
// block by fanout.
func (m *Medium) buildRow(r *Radio, t *transmission) {
	row := m.rowScratch[:0]
	for _, c := range m.candidates(r, t, true, false) {
		rx, rxPos := c.rx, c.pos
		m.LinkCacheMisses++
		base := r.txPower.Add(-m.model.PathLoss.Loss(t.txPos, rxPos))
		if m.model.Shadow != nil {
			base = base.Add(m.model.Shadow.Gain(linkID(r, rx)))
		}
		if m.noFast && m.tooWeak(base, rx) {
			continue
		}
		delay := propDelay(t.txPos.Distance(rxPos))
		if delay>>(64-linkIDBits) != 0 {
			panic(fmt.Sprintf("medium: propagation delay %s→%s does not fit a fan-out entry", r.name, rx.name))
		}
		row = append(row, fanoutEntry{base, linearOrZero(base), uint64(delay)<<linkIDBits | uint64(rx.id)})
	}
	m.rowScratch = row
	r.row = make([]fanoutEntry, len(row)) // exact size: rows are the medium's bulk
	copy(r.row, row)
	r.rowFade = nil // the memo is the row's: a rebuilt row has drawn nothing yet
	if !m.noFast {
		r.rowFade = make([]fadeSlot, len(row))
	}
	r.rowOrder = make([]int32, len(row))
	for i := range r.rowOrder {
		r.rowOrder[i] = int32(i)
	}
	slices.SortFunc(r.rowOrder, func(a, b int32) int {
		return cmp.Or(cmp.Compare(row[a].delay(), row[b].delay()), cmp.Compare(a, b))
	})
	r.rowGen = m.topoGen
}

// transmit puts a wire image on the air from radio r.
func (m *Medium) transmit(r *Radio, f *frame.Frame, rate phy.RateIdx) sim.Duration {
	t := m.getTransmission()
	t.wire = f.AppendWire(t.wire[:0])
	airtime := r.mode.Airtime(rate, len(t.wire))
	m.nextTx++
	m.Transmissions++
	t.id = m.nextTx
	t.tx = r
	t.mode = r.mode
	t.rate = rate
	t.bits = len(t.wire) * 8
	t.start = m.kernel.Now()
	t.airtime = airtime
	t.txPos = r.mobility.PositionAt(t.start)
	if m.Tracer != nil {
		m.Tracer.Trace(trace.Event{
			At: t.start, Node: r.name, Kind: trace.KindTx, Frame: f,
			Detail: fmt.Sprintf("rate=%v airtime=%v", r.mode.Rate(rate), airtime),
		})
	}
	m.fanout(r, t)
	return airtime
}

// fanout collects an arrival for every other radio that the power filter
// keeps, and queues the two cursors that deliver their edges.
// A static transmitter walks its row, merged in ascending-id order with its
// mobile candidates; any other transmitter walks all its candidates.
// Links off the row are computed for this transmission. Pruning — the
// row's build-time filter, the range check — only ever drops receivers
// the power filter would drop, and every path keeps ascending-id order, so
// the arrivals are identical to the full walk.
//
// Edge order is the row's own when the arrivals are exactly the row (no
// entry filtered, no mobile receiver merged in);
// otherwise it is worked out for this transmission, starting from the
// transmitter's last such order.
//
//wlan:hotpath
func (m *Medium) fanout(r *Radio, t *transmission) {
	var row []fanoutEntry
	var fade []fadeSlot    // the row's fast-fading memo, nil without fast fading
	var others []candidate // receivers whose link is computed per transmission
	m.spatialReady()
	if r.static {
		if r.rowGen != m.topoGen {
			m.buildRow(r, t)
		}
		row, fade, others = r.row, r.rowFade, m.candidates(r, t, false, true)
	} else {
		others = m.candidates(r, t, true, true)
	}
	fadeKey := m.model.Fast.Block(t.start) + 1 // t.start's coherence block, as fade keys it
	var refLoss units.DB                       // the transmitter's share of the path loss to each of others
	if len(others) > 0 {
		refLoss = m.model.RefLoss(t.txPos)
	}
	m.LinkCacheHits += uint64(len(row))
	m.FanoutCandidates += uint64(len(row) + len(others))
	arrs := m.arrivalRoom(t, len(row)+len(others))
	for i, j := 0, 0; i < len(row) || j < len(others); {
		var rx *Radio
		var power units.DBm
		var powerMW float64
		var delay sim.Duration
		if j == len(others) || i < len(row) && row[i].rx() < others[j].rx.id {
			e := &row[i]
			i++
			rx, power, powerMW, delay = m.radios[e.rx()], e.power, e.powerMW, e.delay()
			if fade != nil {
				s := &fade[i-1]
				if s.key != fadeKey { // the link's first transmission in this block: draw, filter, convert
					s.key, s.power, s.powerMW = fadeKey, power.Add(m.model.Fast.Gain(linkID(r, rx), t.start)), -1
					if !m.tooWeak(s.power, rx) {
						s.powerMW = linearOrZero(s.power)
					}
				}
				if power, powerMW = s.power, s.powerMW; powerMW < 0 {
					continue
				}
			}
		} else {
			c := &others[j]
			j++
			rx = c.rx
			power = m.model.RxPowerFrom(r.txPower, refLoss, t.txPos, c.pos, linkID(r, rx), t.start)
			if m.tooWeak(power, rx) {
				continue
			}
			powerMW = linearOrZero(power)
			delay = propDelay(t.txPos.Distance(c.pos))
		}
		arrs = append(arrs, arrival{t: t, rx: rx, power: power, powerMW: powerMW, delay: delay})
	}
	t.arrs = arrs
	m.FanoutDelivered += uint64(len(arrs))
	if len(arrs) == 0 {
		m.putTransmission(t)
		return
	}
	if len(arrs) == len(row) && len(others) == 0 {
		t.order = r.rowOrder
	} else {
		if len(r.lastOwn) != len(arrs) { // nothing to start from but index order
			r.lastOwn = m.orderRoom(r.lastOwn, len(arrs))
			for i := range r.lastOwn {
				r.lastOwn[i] = int32(i)
			}
		}
		sortEdges(r.lastOwn, arrs)
		// A copy: r may transmit again, and sort again, while t is on the air.
		t.own = m.orderRoom(t.own, len(arrs))
		copy(t.own, r.lastOwn)
		t.order = t.own
	}
	t.seq0 = m.kernel.ReserveSeq(2 * len(arrs))
	t.pos = [2]int{}
	t.queue(m.kernel, 0)
	t.queue(m.kernel, 1)
}

func (m *Medium) String() string {
	return fmt.Sprintf("medium(%d radios, %d tx)", len(m.radios), m.Transmissions)
}

// linearOrZero converts dBm to mW treating -Inf as zero.
func linearOrZero(p units.DBm) float64 {
	if math.IsInf(float64(p), -1) {
		return 0
	}
	return p.MilliWatt()
}
