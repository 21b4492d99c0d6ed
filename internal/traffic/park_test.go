package traffic

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/rng"
	"repro/internal/sim"
)

// The wall under the parked saturator: a saturator that waits on its backlog
// must be indistinguishable — every accepted packet's flow, Seq, SentAt,
// acceptance instant and queue position, Offered/Refused, the backlog's drop
// count — from one that runs every top-up, and must run fewer events by
// exactly the top-ups it settled. Each scenario is played twice on fresh
// kernels: once with NewSaturator on a scripted backlog, once with pollTwin,
// the polling loop as it was before parking, queued under the same kind of
// reserved number.

// pollTwin is the reference saturator: every top-up runs.
type pollTwin struct {
	k                     *sim.Kernel
	flowID                uint32
	send                  SendFunc
	tick                  uint64
	seq, offered, refused uint64
	stopped               bool
	buf                   []byte
}

func newPollTwin(k *sim.Kernel, flowID uint32, size int, send SendFunc) *pollTwin {
	p := &pollTwin{k: k, flowID: flowID, send: send, buf: make([]byte, size)}
	p.tick = k.ReserveSeq(1)
	k.ScheduleArgSeq(k.Now(), p.tick, "traffic-sat", pollTick, p)
	return p
}

func pollTick(a any) {
	p := a.(*pollTwin)
	if p.stopped {
		return
	}
	for i := 0; i < 512; i++ {
		EncodeHeader(p.buf, Header{FlowID: p.flowID, Seq: p.seq, SentAt: p.k.Now()})
		p.seq++
		p.offered++
		if !p.send(p.buf) {
			p.refused++
			break
		}
	}
	p.k.ScheduleArgSeq(p.k.Now().Add(sim.Millisecond), p.tick, "traffic-sat", pollTick, p)
}

// accepted is one packet the scripted queue took.
type accepted struct {
	Flow   uint32
	Seq    uint64
	SentAt sim.Time
	At     sim.Time // acceptance instant
}

// scriptQueue models mac.DCF's transmit side: capacity slots plus one MSDU in
// flight. A send into an idle queue cuts through to the in-flight slot; a
// drain finishes the in-flight MSDU and pulls the next. Every dequeue calls
// all waiters and forgets them, as DCF.tryAccess does. While unavailable it
// refuses sends it has room for without counting a drop, as an unassociated
// station does; a full queue refuses first, as mac.DCF.Admit does.
type scriptQueue struct {
	k           *sim.Kernel
	capacity    int
	occ         int
	busy        bool
	unavailable bool
	log         []accepted
	drops       uint64 // refused sends plus Refuse totals: mac.Stats.QueueDrops
	settled     uint64 // Refuse totals alone
	waiters     []func()
	wakes       int // dequeues that found somebody waiting
	withRoom    int // sends refused with room in the queue
}

func (q *scriptQueue) send(p []byte) bool {
	if q.occ >= q.capacity {
		q.drops++
		return false
	}
	if q.unavailable {
		q.withRoom++
		return false
	}
	h, _ := DecodeHeader(p)
	q.log = append(q.log, accepted{h.FlowID, h.Seq, h.SentAt, q.k.Now()})
	q.occ++
	if !q.busy {
		q.busy = true
		q.dequeue()
	}
	return true
}

func (q *scriptQueue) dequeue() {
	q.occ--
	if len(q.waiters) > 0 {
		q.wakes++
	}
	for i, fn := range q.waiters {
		q.waiters[i] = nil
		fn()
	}
	q.waiters = q.waiters[:0]
}

func (q *scriptQueue) drain(n int) {
	for ; n > 0; n-- {
		if q.occ == 0 {
			q.busy = false
			return
		}
		q.dequeue()
	}
}

func (q *scriptQueue) AwaitSpace(fn func()) bool {
	if q.occ < q.capacity {
		return false
	}
	q.waiters = append(q.waiters, fn)
	return true
}

func (q *scriptQueue) Refuse(n uint64) { q.drops += n; q.settled += n }

type opKind uint8

const (
	opDrain  opKind = iota // the queue finishes n MSDUs
	opSteal                // a second enqueuer offers n packets (flow 99)
	opStop                 // Stop saturator n (modulo those started)
	opStart                // start one more saturator on the same queue
	opToggle               // the queue starts or stops refusing sends it has room for
	opKinds
)

// op is one scripted event. Older ops are queued before the first saturator
// starts, so at a shared instant they run before its top-up; the others are
// chained — each queued while its predecessor runs — so they are younger than
// every saturator started before them, and run after its top-up.
type op struct {
	at    sim.Time
	kind  opKind
	n     int
	older bool
}

type scenario struct {
	capacity int
	ops      []op
	reads    []sim.Time // run boundaries, ascending; the last ends the run
}

// snapshot is what a reader sees between two runs.
type snapshot struct {
	Counters [][2]uint64 // Offered, Refused per saturator
	Drops    uint64
	WithRoom int // refusals with room in the queue
	Accepted int
}

// readout is a snapshot and what the oracle needs beside it.
type readout struct {
	snapshot
	processed uint64 // events run so far
	settled   uint64 // top-ups settled so far
	ghosts    uint64 // empty top-ups of stopped twins run so far
}

type world struct {
	k      *sim.Kernel
	q      *scriptQueue
	park   bool
	gens   []*Generator
	twins  []*pollTwin
	ghosts []sim.Time // instants at which a twin stopped while its double was parked runs its last, empty top-up
	// Waiters woken at one of their own grid instants, by an event ordered
	// before resp. after their top-up of that instant: the tie Settle decides.
	tieBefore, tieAfter int
	reads               []readout
}

func (w *world) start() {
	id := uint32(len(w.gens) + len(w.twins) + 1)
	if w.park {
		w.gens = append(w.gens, NewSaturator(w.k, id, 100, w.q.send, w.q))
	} else {
		w.twins = append(w.twins, newPollTwin(w.k, id, 100, w.q.send))
	}
}

func (w *world) apply(o op) {
	switch o.kind {
	case opDrain:
		for _, g := range w.gens {
			if g.parked && !g.stopped && w.q.occ > 0 && w.k.Now().Sub(g.last)%g.topUp == 0 && w.k.Now() > g.last {
				if w.k.Passed(w.k.Now(), g.tick) {
					w.tieAfter++
				} else {
					w.tieBefore++
				}
			}
		}
		w.q.drain(o.n)
	case opSteal:
		buf := make([]byte, HeaderLen)
		for i := 0; i < o.n; i++ {
			EncodeHeader(buf, Header{FlowID: 99, Seq: uint64(i), SentAt: w.k.Now()})
			w.q.send(buf)
		}
	case opStop:
		if w.park {
			g := w.gens[o.n%len(w.gens)]
			wasParked := g.parked && !g.stopped
			g.Stop()
			if wasParked {
				w.ghosts = append(w.ghosts, g.last.Add(g.topUp))
			}
		} else {
			w.twins[o.n%len(w.twins)].stopped = true
		}
	case opStart:
		w.start()
	case opToggle:
		w.q.unavailable = !w.q.unavailable
	}
}

// play runs the scenario in one world.
func play(sc scenario, park bool) *world {
	k := sim.NewKernel()
	w := &world{k: k, q: &scriptQueue{k: k, capacity: sc.capacity}, park: park}
	var younger []op
	for _, o := range sc.ops {
		if o.older {
			o := o
			k.ScheduleAt(o.at, "op", func() { w.apply(o) })
		} else {
			younger = append(younger, o)
		}
	}
	w.start()
	sort.SliceStable(younger, func(i, j int) bool { return younger[i].at < younger[j].at })
	var chain func(i int)
	chain = func(i int) {
		if i == len(younger) {
			return
		}
		k.ScheduleAt(younger[i].at, "op", func() {
			chain(i + 1) // queued first: ops sharing an instant keep their order
			w.apply(younger[i])
		})
	}
	chain(0)
	for _, at := range sc.reads {
		k.RunUntil(at)
		s := readout{processed: k.Processed()}
		for _, g := range w.gens {
			g.Settle() // what core.Network.Run does before it returns
			s.Counters = append(s.Counters, [2]uint64{g.Offered, g.Refused})
		}
		for _, p := range w.twins {
			s.Counters = append(s.Counters, [2]uint64{p.offered, p.refused})
		}
		s.Drops, s.WithRoom, s.Accepted, s.settled = w.q.drops, w.q.withRoom, len(w.q.log), w.q.settled
		for _, at := range w.ghosts {
			if at <= k.Now() {
				s.ghosts++
			}
		}
		w.reads = append(w.reads, s)
	}
	return w
}

// checkParkEqualsPoll plays sc in both worlds and holds the parked one to the
// polling one. It returns the parked world for callers that assert coverage.
func checkParkEqualsPoll(t testing.TB, sc scenario) *world {
	t.Helper()
	poll, park := play(sc, false), play(sc, true)
	if !reflect.DeepEqual(poll.q.log, park.q.log) {
		for i := range poll.q.log {
			if i >= len(park.q.log) || poll.q.log[i] != park.q.log[i] {
				t.Fatalf("accepted packet %d: polled %+v, parked %+v (of %d / %d)", i,
					poll.q.log[i], append(park.q.log, accepted{})[i], len(poll.q.log), len(park.q.log))
			}
		}
		t.Fatalf("parked world accepted %d packets, polled %d", len(park.q.log), len(poll.q.log))
	}
	for i, at := range sc.reads {
		a, b := poll.reads[i], park.reads[i]
		if !reflect.DeepEqual(a.snapshot, b.snapshot) {
			t.Fatalf("read at %v: polled %+v, parked %+v", at, a.snapshot, b.snapshot)
		}
		// Every settled attempt is one top-up event that did not run; a
		// saturator stopped while parked also skips the empty top-up its
		// twin still pops.
		if got := a.processed - b.processed; got != b.settled+b.ghosts {
			t.Fatalf("read at %v: parked world ran %d fewer events, settled %d + %d stopped top-ups", at, got, b.settled, b.ghosts)
		}
	}
	if poll.q.settled != 0 {
		t.Fatalf("polling twin settled %d attempts", poll.q.settled)
	}
	return park
}

const (
	us = sim.Time(sim.Microsecond)
	ms = sim.Time(sim.Millisecond)
)

// seededOps draws drains, steals, a late start and a stop: half the instants
// on the 1 ms grid of the first saturator (so ties happen), half off it.
func seededOps(src *rng.Source, span sim.Time, withSecond, withStop bool) []op {
	var ops []op
	for at := sim.Time(0); at < span; {
		at += sim.Time(src.Intn(2500)) * us
		if src.Intn(2) == 0 {
			at -= at % ms
		}
		o := op{at: at, kind: opDrain, n: 1 + src.Intn(3), older: src.Intn(3) == 0}
		if src.Intn(5) == 0 {
			o.n = 40 + src.Intn(600) // empty a deep queue now and then
		}
		ops = append(ops, o)
		if src.Intn(4) == 0 {
			// The second enqueuer takes the freed slot before the saturator's
			// next top-up: same instant, or a little later.
			ops = append(ops, op{at: at + sim.Time(src.Intn(2))*300*us, kind: opSteal, n: 1 + src.Intn(2), older: o.older})
		}
	}
	if withSecond {
		// Off the first saturator's grid, and exactly on it.
		ops = append(ops, op{at: []sim.Time{2*ms + 300*us, 3 * ms}[src.Intn(2)], kind: opStart})
	}
	if withStop {
		ops = append(ops, op{at: span/4 + sim.Time(src.Intn(10))*ms/2, kind: opStop, n: src.Intn(2), older: src.Intn(2) == 0})
	}
	return ops
}

func TestSaturatorParkEqualsPoll(t *testing.T) {
	var tieBefore, tieAfter, wakes int
	var settled uint64
	for _, capacity := range []int{1, 3, 64, 1024} {
		for seed := uint64(1); seed <= 12; seed++ {
			src := rng.New(seed)
			span := 40 * ms
			sc := scenario{capacity: capacity, ops: seededOps(src, span, seed%2 == 0, seed%3 == 0)}
			// Reads on and off the grid, on and off a drain instant.
			sc.reads = []sim.Time{ms, 7*ms + 123*us, 20 * ms, 20*ms + 1, span, span + 5*ms + 500*us}
			t.Run(fmt.Sprintf("cap%d/seed%d", capacity, seed), func(t *testing.T) {
				w := checkParkEqualsPoll(t, sc)
				tieBefore += w.tieBefore
				tieAfter += w.tieAfter
				wakes += w.q.wakes
				settled += w.q.settled
			})
		}
	}
	// The scenarios must reach what they are there for.
	if tieBefore == 0 || tieAfter == 0 {
		t.Errorf("wake-ups at an exact top-up instant: %d from an older event, %d from a younger one; want both", tieBefore, tieAfter)
	}
	if wakes == 0 || settled == 0 {
		t.Errorf("%d wake-ups, %d settled top-ups: the saturators never stayed parked", wakes, settled)
	}
}

// TestSaturatorParkScripted pins the cases by hand, one per line of the
// contract, with the numbers a reader can check.
func TestSaturatorParkScripted(t *testing.T) {
	t.Run("tie with an older and a younger event", func(t *testing.T) {
		// Capacity 1: the start top-up fills flight + queue and parks at 0.
		// The drain at exactly 3 ms queued before the saturator runs before
		// its 3 ms top-up: instants 1 and 2 ms are settled, 3 ms is real.
		// The drain at exactly 6 ms queued after it runs after the 6 ms
		// top-up: 4, 5 and 6 ms are settled, 7 ms is real.
		sc := scenario{capacity: 1, reads: []sim.Time{10 * ms},
			ops: []op{{at: 3 * ms, kind: opDrain, n: 1, older: true}, {at: 6 * ms, kind: opDrain, n: 1}}}
		w := checkParkEqualsPoll(t, sc)
		if w.tieBefore != 1 || w.tieAfter != 1 {
			t.Fatalf("ties: %d before, %d after, want 1 and 1", w.tieBefore, w.tieAfter)
		}
		want := []accepted{{1, 0, 0, 0}, {1, 1, 0, 0}, {1, 5, 3 * ms, 3 * ms}, {1, 10, 7 * ms, 7 * ms}}
		if !reflect.DeepEqual(w.q.log, want) {
			t.Fatalf("accepted %+v, want %+v", w.q.log, want)
		}
		// 11 grid instants 0..10 ms; top-ups ran at 0, 3 and 7 ms only.
		if g := w.gens[0]; g.Offered != 15 || g.Refused != 11 || w.q.settled != 8 || w.q.drops != 11 {
			t.Fatalf("offered %d refused %d settled %d drops %d, want 15 11 8 11", g.Offered, g.Refused, w.q.settled, w.q.drops)
		}
	})
	t.Run("an un-refused top-up re-queues", func(t *testing.T) {
		// 1 024 slots + flight: top-ups at 0 and 1 ms accept 512 each
		// without a refusal, the one at 2 ms accepts 1 and is refused.
		w := checkParkEqualsPoll(t, scenario{capacity: 1024, reads: []sim.Time{5 * ms}})
		if g := w.gens[0]; g.Sent() != 1025 || g.Refused != 4 || w.q.settled != 3 || w.k.Processed() != 3 {
			t.Fatalf("sent %d refused %d settled %d events %d, want 1025 4 3 3", g.Sent(), g.Refused, w.q.settled, w.k.Processed())
		}
	})
	t.Run("a top-up that fills the queue exactly re-queues", func(t *testing.T) {
		// 1 023 slots + flight: the top-up at 0 accepts 512, the one at 1 ms
		// accepts 512 more and fills the queue without a refusal, so it
		// queues the 2 ms top-up instead of waiting on the backlog; that one
		// is refused and parks, and 3–5 ms are settled.
		w := checkParkEqualsPoll(t, scenario{capacity: 1023, reads: []sim.Time{5 * ms}})
		if g := w.gens[0]; g.Sent() != 1024 || g.Refused != 4 || w.q.settled != 3 || w.k.Processed() != 3 {
			t.Fatalf("sent %d refused %d settled %d events %d, want 1024 4 3 3", g.Sent(), g.Refused, w.q.settled, w.k.Processed())
		}
	})
	t.Run("a stolen slot parks the saturator again", func(t *testing.T) {
		sc := scenario{capacity: 2, reads: []sim.Time{4 * ms},
			ops: []op{{at: ms + 500*us, kind: opDrain, n: 1}, {at: ms + 600*us, kind: opSteal, n: 1}}}
		w := checkParkEqualsPoll(t, sc)
		if g := w.gens[0]; !g.parked || g.Sent() != 3 || w.q.wakes != 1 || w.q.log[3].Flow != 99 {
			t.Fatalf("parked %v sent %d wakes %d log %+v", g.parked, g.Sent(), w.q.wakes, w.q.log)
		}
	})
	t.Run("two saturators wait on one backlog", func(t *testing.T) {
		sc := scenario{capacity: 1, reads: []sim.Time{8 * ms},
			ops: []op{{at: 300 * us, kind: opStart}, {at: 2*ms + 100*us, kind: opDrain, n: 1}, {at: 5 * ms, kind: opDrain, n: 1, older: true}}}
		w := checkParkEqualsPoll(t, sc)
		// The 2.1 ms drain wakes both; the second saturator's grid (2.3 ms)
		// comes first and takes the slot, the first (3 ms) is refused. The
		// older 5 ms drain lets the first saturator's own 5 ms top-up in.
		if len(w.q.log) != 4 || w.q.log[2].Flow != 2 || w.q.log[2].At != 2*ms+300*us || w.q.log[3].Flow != 1 || w.q.log[3].At != 5*ms {
			t.Fatalf("accepted %+v", w.q.log)
		}
	})
	t.Run("a refusal with room polls, a full queue parks", func(t *testing.T) {
		// Capacity 2, unavailable from before the first top-up to 2.5 ms
		// and again from 4.1 to 7.5 ms. Top-ups at 0, 1 and 2 ms are refused
		// with room and poll; 3 ms fills flight + queue and parks; the
		// 5.1 ms drain settles 4 and 5 ms; 6 and 7 ms are refused with room
		// and poll again; 8 ms takes the free slot and parks; 9 and 10 ms
		// are settled by the read.
		sc := scenario{capacity: 2, reads: []sim.Time{10 * ms},
			ops: []op{{at: 0, kind: opToggle, older: true}, {at: 2*ms + 500*us, kind: opToggle},
				{at: 4*ms + 100*us, kind: opToggle}, {at: 5*ms + 100*us, kind: opDrain, n: 1}, {at: 7*ms + 500*us, kind: opToggle}}}
		w := checkParkEqualsPoll(t, sc)
		if g := w.gens[0]; g.Offered != 15 || g.Refused != 11 || w.q.withRoom != 5 || w.q.drops != 6 || w.q.settled != 4 || len(w.q.log) != 4 {
			t.Fatalf("offered %d refused %d with room %d drops %d settled %d accepted %d, want 15 11 5 6 4 4",
				g.Offered, g.Refused, w.q.withRoom, w.q.drops, w.q.settled, len(w.q.log))
		}
	})
	t.Run("Stop while parked settles and stays stopped", func(t *testing.T) {
		sc := scenario{capacity: 1, reads: []sim.Time{2 * ms, 9 * ms},
			ops: []op{{at: 4*ms + 1, kind: opStop}, {at: 6 * ms, kind: opDrain, n: 2}}}
		w := checkParkEqualsPoll(t, sc)
		if g := w.gens[0]; g.Offered != 3+4 || g.Refused != 1+4 || len(w.q.log) != 2 {
			t.Fatalf("offered %d refused %d accepted %d, want 7 5 2", g.Offered, g.Refused, len(w.q.log))
		}
	})
}

// FuzzSaturatorSchedule holds the same oracle over drain schedules read from
// the corpus bytes: byte 0 picks the capacity, then four bytes per op.
func FuzzSaturatorSchedule(f *testing.F) {
	f.Add([]byte{0, 20, 1, 0, 0, 40, 1, 1, 0, 60, 0, 0, 1})
	f.Add([]byte{1, 20, 2, 1, 0, 6, 0, 3, 0, 14, 1, 0, 0, 25, 3, 2, 1, 20, 2, 0, 0})
	f.Add([]byte{2, 40, 90, 0, 1, 20, 90, 0, 0, 1, 1, 1, 0, 19, 200, 0, 1})
	f.Add([]byte{3, 60, 255, 0, 0, 20, 255, 0, 1, 20, 255, 0, 0, 7, 1, 2, 0})
	// Unavailable windows: refusals with room poll the grid between parks.
	f.Add([]byte{1, 0, 0, 4, 1, 50, 0, 4, 0, 10, 1, 0, 0, 20, 0, 4, 0, 15, 2, 0, 1, 30, 0, 4, 0, 5, 0, 0, 0})
	f.Add([]byte{0, 10, 0, 4, 0, 22, 1, 0, 1, 3, 0, 3, 0, 31, 0, 4, 1, 20, 0, 0, 0, 40, 0, 4, 0, 20, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 || len(data) > 1+4*64 {
			return
		}
		sc := scenario{capacity: []int{1, 3, 64, 1024}[data[0]%4]}
		at := sim.Time(0)
		for b := data[1:]; len(b) >= 4; b = b[4:] {
			// 50 µs steps: every twentieth lands on the first saturator's grid.
			at += sim.Time(b[0]%64) * 50 * us
			o := op{at: at, kind: opKind(b[2] % uint8(opKinds)), n: 1 + int(b[1]), older: b[3]&1 == 1}
			if o.kind == opStart && (o.older || at == 0) {
				o.kind = opDrain // a saturator starts from a chained event, after the first
			}
			if o.kind == opSteal {
				o.n = 1 + o.n%4
			}
			sc.ops = append(sc.ops, o)
		}
		sc.reads = []sim.Time{at / 3, at/2 + 1, at, at + 3*ms + 500*us}
		checkParkEqualsPoll(t, sc)
	})
}
