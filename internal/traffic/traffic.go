// Package traffic provides workload generators (CBR, Poisson, saturating
// backlog) and a measurement sink. Generated payloads carry a
// small header (flow ID, sequence number, departure timestamp) so the sink
// can compute per-flow goodput, delivery ratio, loss and latency without
// any side channel — exactly the way testbed tools like iperf do it.
//
// A saturator parks on its Backlog (the source's MAC queue) once a send is
// refused by a full queue, and runs no event until a packet leaves; the
// top-ups it skipped are settled as counts. A send refused for any other
// reason is offered again on the next top-up. See NewSaturator.
package traffic

import (
	"encoding/binary"

	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/stats"
)

// HeaderLen is the measurement header size inside each payload.
const HeaderLen = 20

// Header is the measurement preamble of every generated payload.
type Header struct {
	FlowID uint32
	Seq    uint64
	SentAt sim.Time
}

// EncodeHeader writes the header into a payload buffer of at least
// HeaderLen bytes.
func EncodeHeader(buf []byte, h Header) {
	binary.LittleEndian.PutUint32(buf[0:4], h.FlowID)
	binary.LittleEndian.PutUint64(buf[4:12], h.Seq)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(h.SentAt))
}

// DecodeHeader reads the measurement header back. ok is false for payloads
// that are too short to carry one.
func DecodeHeader(buf []byte) (h Header, ok bool) {
	if len(buf) < HeaderLen {
		return Header{}, false
	}
	h.FlowID = binary.LittleEndian.Uint32(buf[0:4])
	h.Seq = binary.LittleEndian.Uint64(buf[4:12])
	h.SentAt = sim.Time(binary.LittleEndian.Uint64(buf[12:20]))
	return h, true
}

// SendFunc submits one payload to the network; it returns false when the
// transmit queue rejected it (generator counts it as an offered-but-dropped
// packet).
type SendFunc func(payload []byte) bool

// Backlog is the transmit queue behind a saturator's SendFunc, where a send
// the queue refuses does nothing but count itself: the saturator waits for
// room instead of making sends it knows will be refused, and reports them.
type Backlog interface {
	// AwaitSpace has fn called once, the next time a packet leaves the
	// queue, if the queue is full now; it reports whether fn was registered.
	AwaitSpace(fn func()) bool
	// Refuse counts n sends the full queue would have refused.
	Refuse(n uint64)
}

// Generator is a running traffic source.
type Generator struct {
	k      *sim.Kernel
	flowID uint32
	size   int
	send   SendFunc

	// next returns the gap to the next packet (saturators have none).
	next func() sim.Duration

	// Saturation support: top-ups sit on the grid start + i*topUp, all under
	// the schedule-order number tick; last is the latest grid instant run or
	// settled. A parked saturator has none queued: backlog will call wakeFn.
	topUp   sim.Duration
	burst   int
	backlog Backlog
	tick    uint64
	last    sim.Time
	parked  bool
	wakeFn  func()

	seq     uint64
	Offered uint64 // packets handed to send
	Refused uint64 // packets send() rejected
	stopped bool

	// runFn is the self-rescheduling callback, bound once so each packet
	// does not allocate a fresh method value.
	runFn func()
	// buf is the reusable payload scratch: every consumer of a payload
	// copies what it keeps — the net80211 send paths re-encapsulate it
	// into their pooled transmit bodies (frame.AppendSNAP), the sink's
	// header decode reads in place — so one buffer serves every emit and
	// the generator→Send→MAC chain allocates nothing per packet.
	buf []byte
}

// Stop halts the generator after the current event (a parked saturator is
// settled first: its counters are final).
func (g *Generator) Stop() {
	g.Settle()
	g.stopped = true
}

// Sent returns the number of accepted packets.
func (g *Generator) Sent() uint64 { return g.Offered - g.Refused }

// Size returns the payload size of every packet g sends.
func (g *Generator) Size() int { return g.size }

func (g *Generator) emit() bool {
	if cap(g.buf) < g.size {
		g.buf = make([]byte, g.size)
	}
	payload := g.buf[:g.size]
	EncodeHeader(payload, Header{FlowID: g.flowID, Seq: g.seq, SentAt: g.k.Now()})
	g.seq++
	g.Offered++
	if !g.send(payload) {
		g.Refused++
		return false
	}
	return true
}

func (g *Generator) run() {
	if g.stopped {
		return
	}
	g.emit()
	gap := g.next()
	if gap < 0 {
		gap = 0
	}
	g.k.Schedule(gap, "traffic", g.runFn)
}

func runSaturateArg(g any) { g.(*Generator).runSaturate() }

func (g *Generator) runSaturate() {
	if g.stopped {
		return
	}
	// Keep the queue topped up: push until refused, then wait for room on
	// the backlog if the queue is what refused, or check back soon.
	g.last = g.k.Now()
	refused := false
	for i := 0; i < g.burst && !refused; i++ {
		refused = !g.emit()
	}
	if g.parked = refused && g.backlog.AwaitSpace(g.wakeFn); g.parked {
		return
	}
	g.k.ScheduleArgSeq(g.last.Add(g.topUp), g.tick, "traffic-sat", runSaturateArg, g)
}

// Settle brings a parked saturator's counters up to the clock: every grid
// instant the run loop has passed since last offered one packet to a
// still-full queue and had it refused, nothing else. Otherwise a no-op.
func (g *Generator) Settle() {
	if !g.parked || g.stopped {
		return
	}
	n := g.k.Now().Sub(g.last) / g.topUp
	if n > 0 && !g.k.Passed(g.last.Add(n*g.topUp), g.tick) {
		n-- // this instant's top-up is ordered after the running event
	}
	g.last = g.last.Add(n * g.topUp)
	g.seq, g.Offered, g.Refused = g.seq+uint64(n), g.Offered+uint64(n), g.Refused+uint64(n)
	g.backlog.Refuse(uint64(n))
}

// wake is the AwaitSpace callback: a packet left the queue, so the next
// top-up, the first grid instant not passed, is queued.
func (g *Generator) wake() {
	if !g.stopped {
		g.Settle()
		g.parked = false
		g.k.ScheduleArgSeq(g.last.Add(g.topUp), g.tick, "traffic-sat", runSaturateArg, g)
	}
}

// start begins generation at t=now (first packet immediately).
func (g *Generator) start() {
	g.runFn = g.run
	g.k.Schedule(0, "traffic", g.runFn)
}

// NewCBR starts a constant-bit-rate source: size-byte payloads every
// interval.
func NewCBR(k *sim.Kernel, flowID uint32, size int, interval sim.Duration, send SendFunc) *Generator {
	if size < HeaderLen {
		size = HeaderLen
	}
	g := &Generator{k: k, flowID: flowID, size: size, send: send}
	g.next = func() sim.Duration { return interval }
	g.start()
	return g
}

// NewPoisson starts a Poisson source with mean rate pktPerSec.
func NewPoisson(k *sim.Kernel, flowID uint32, size int, pktPerSec float64, src *rng.Source, send SendFunc) *Generator {
	if size < HeaderLen {
		size = HeaderLen
	}
	g := &Generator{k: k, flowID: flowID, size: size, send: send}
	exp := src.Split("poisson")
	g.next = func() sim.Duration {
		return sim.Duration(exp.ExpFloat64() / pktPerSec * float64(sim.Second))
	}
	g.start()
	return g
}

// NewSaturator starts a source that keeps backlog, the transmit queue behind
// send, full: it pushes packets until a send is refused, then tops up every
// topUp (1 ms). Every top-up is queued under one schedule-order number taken
// here, so at an exact-nanosecond tie it runs before any event scheduled
// after the saturator started and after any scheduled before. A top-up whose
// refusal came from a full queue (backlog.AwaitSpace registered the wake-up)
// queues no successor: the wake-up settles the top-ups skipped since and
// queues the next one on the grid, so accepted packets carry the Seq, SentAt
// and queue position polling gives them, and Offered/Refused are current
// whenever the saturator is not parked, and after Settle or Stop. This is
// exact only if every send made while the queue is full is refused with one
// counted drop and nothing else, whatever the sender's other state does.
func NewSaturator(k *sim.Kernel, flowID uint32, size int, send SendFunc, backlog Backlog) *Generator {
	if size < HeaderLen {
		size = HeaderLen
	}
	g := &Generator{k: k, flowID: flowID, size: size, send: send,
		topUp: sim.Millisecond, burst: 512, backlog: backlog, tick: k.ReserveSeq(1)}
	g.wakeFn = g.wake
	k.ScheduleArgSeq(k.Now(), g.tick, "traffic-sat", runSaturateArg, g)
	return g
}

// FlowStats aggregates what the sink observed for one flow.
type FlowStats struct {
	Received   uint64
	Bytes      uint64
	Latency    stats.Welford
	LatencyH   stats.Histogram
	MaxSeq     uint64
	OutOfOrder uint64
	Duplicates uint64
	LastRxAt   sim.Time
	// MaxGap is the longest silence between consecutive arrivals —
	// the outage metric for roaming experiments.
	MaxGap sim.Duration
	// window is the duplicate detector: a circular bitmap over the
	// seenWindow sequence numbers up to MaxSeq. It never allocates or
	// rehashes.
	window [seenWindow / 64]uint64
}

// LossRatio estimates loss from sequence-number gaps: 1 - received/(maxSeq+1).
func (f *FlowStats) LossRatio() float64 {
	if f.Received == 0 {
		return 1
	}
	expected := float64(f.MaxSeq + 1)
	return 1 - float64(f.Received)/expected
}

// Sink consumes delivered payloads and accumulates per-flow statistics.
type Sink struct {
	k       *sim.Kernel
	flows   map[uint32]*FlowStats
	bounded bool
	// Unparsed counts payloads without a measurement header.
	Unparsed uint64
}

// seenWindow is the sink's duplicate-detection depth: sequence numbers
// further than this behind a flow's newest arrival are forgotten, and count
// as new if they arrive again. MAC-layer duplicates and reordering span at
// most the retry depth — a handful of frames — so the window changes
// nothing at scenario scale.
const seenWindow = 4096

// Bound keeps the sink's per-flow memory flat for indefinitely long runs:
// raw latency samples are not retained (quantile queries read as empty; the
// streaming mean/variance stays exact). Scenario-scale experiment runs
// leave this off and keep every sample.
func (s *Sink) Bound() { s.bounded = true }

// NewSink builds an empty sink.
func NewSink(k *sim.Kernel) *Sink {
	return &Sink{k: k, flows: make(map[uint32]*FlowStats)}
}

// Deliver ingests one received payload.
func (s *Sink) Deliver(payload []byte) {
	h, ok := DecodeHeader(payload)
	if !ok {
		s.Unparsed++
		return
	}
	f := s.flows[h.FlowID]
	if f == nil {
		f = &FlowStats{}
		s.flows[h.FlowID] = f
	}
	if f.seen(h.Seq) {
		f.Duplicates++
		return
	}
	if h.Seq < f.MaxSeq {
		f.OutOfOrder++
	}
	if h.Seq > f.MaxSeq {
		f.MaxSeq = h.Seq
	}
	f.Received++
	f.Bytes += uint64(len(payload))
	if f.Received > 1 {
		if gap := s.k.Now().Sub(f.LastRxAt); gap > f.MaxGap {
			f.MaxGap = gap
		}
	}
	f.LastRxAt = s.k.Now()
	lat := s.k.Now().Sub(h.SentAt).Seconds()
	f.Latency.Add(lat)
	if !s.bounded {
		f.LatencyH.Add(lat)
	}
}

// seen reports whether seq arrived before, and marks it arrived: test-and-
// set in the window. A sequence number that fell off the back of the window
// is forgotten and reports as new. Advancing MaxSeq clears the slots it
// skips one at a time, which is amortized O(1) because generators emit
// consecutive sequence numbers.
func (f *FlowStats) seen(seq uint64) bool {
	const w = seenWindow
	word, bit := (seq%w)/64, uint64(1)<<(seq%64)
	switch {
	case seq > f.MaxSeq:
		for s := max(f.MaxSeq+1, seq-min(seq, w-1)); s < seq; s++ {
			f.window[(s%w)/64] &^= 1 << (s % 64)
		}
	case f.MaxSeq-seq >= w:
		return false // its slot now belongs to a newer sequence number
	case f.window[word]&bit != 0:
		return true
	}
	f.window[word] |= bit
	return false
}

// Flow returns stats for a flow ID (nil if nothing arrived).
func (s *Sink) Flow(id uint32) *FlowStats { return s.flows[id] }

// TotalBytes sums payload bytes over flows.
func (s *Sink) TotalBytes() uint64 {
	var n uint64
	//wlan:allow-nondeterminism order-independent integer sum
	for _, f := range s.flows {
		n += f.Bytes
	}
	return n
}
