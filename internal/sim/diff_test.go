package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// --- reference implementation --------------------------------------------
//
// refHeap is a deliberately naive binary min-heap on (at, seq) with lazy
// cancellation: the simplest credible model of the kernel's ordering
// contract. FuzzKernelOps drives it in lock-step with the kernel's 4-ary
// heap and demands identical pop sequences.

type refKey struct {
	at  Time
	seq uint64
	id  int
}

func refLess(a, b refKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

type refHeap struct {
	keys      []refKey
	cancelled map[uint64]bool
}

func newRefHeap() *refHeap {
	return &refHeap{cancelled: make(map[uint64]bool)}
}

func (h *refHeap) push(k refKey) {
	h.keys = append(h.keys, k)
	i := len(h.keys) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !refLess(h.keys[i], h.keys[p]) {
			break
		}
		h.keys[i], h.keys[p] = h.keys[p], h.keys[i]
		i = p
	}
}

// popRoot removes and returns the minimum key, cancelled or not.
func (h *refHeap) popRoot() refKey {
	min := h.keys[0]
	n := len(h.keys) - 1
	h.keys[0] = h.keys[n]
	h.keys = h.keys[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && refLess(h.keys[c+1], h.keys[c]) {
			c++
		}
		if !refLess(h.keys[c], h.keys[i]) {
			break
		}
		h.keys[i], h.keys[c] = h.keys[c], h.keys[i]
		i = c
	}
	return min
}

// pop removes and returns the minimum live key, skipping cancelled entries.
// ok is false when the heap holds no live keys.
func (h *refHeap) pop() (refKey, bool) {
	for len(h.keys) > 0 {
		min := h.popRoot()
		if h.cancelled[min.seq] {
			delete(h.cancelled, min.seq)
			continue
		}
		return min, true
	}
	return refKey{}, false
}

// TestCohortDrainProperty checks the same-timestamp ordering contract
// directly: every event queued at timestamp T runs before the clock advances
// past T, in seq (schedule) order — including events that callbacks schedule
// at T while the tick is running, which join with later seq.
func TestCohortDrainProperty(t *testing.T) {
	k := NewKernel()
	const T = Time(1000)
	const nA, nB = 50, 30

	var order []int
	var timers [nA]Timer
	for i := 0; i < nA; i++ {
		i := i
		timers[i] = k.ScheduleAt(T, "a", func() {
			if k.Now() != T {
				t.Fatalf("cohort event %d ran at %v, want %v", i, k.Now(), T)
			}
			order = append(order, i)
			if i < 5 {
				// Same-tick schedule from inside the cohort: must still run
				// at T, after every already-queued T event.
				extra := 1000 + i
				k.Schedule(0, "extra", func() {
					if k.Now() != T {
						t.Fatalf("same-tick event %d ran at %v, want %v", extra, k.Now(), T)
					}
					order = append(order, extra)
				})
			}
			if i == 0 {
				// Drained-but-unexecuted cohort events are still Scheduled:
				// the pop/execute window of the old per-pop loop was
				// unobservable, so the cohort window must be too.
				if !timers[nA-1].Scheduled() {
					t.Fatal("drained cohort event lost Scheduled status")
				}
				if p := k.Pending(); p < nA-1 {
					t.Fatalf("Pending = %d mid-cohort, want >= %d", p, nA-1)
				}
			}
		})
	}
	for i := 0; i < nB; i++ {
		i := i
		k.ScheduleAt(T+10, "b", func() { order = append(order, 100+i) })
	}
	k.Run()

	want := make([]int, 0, nA+5+nB)
	for i := 0; i < nA; i++ {
		want = append(want, i)
	}
	for i := 0; i < 5; i++ {
		want = append(want, 1000+i)
	}
	for i := 0; i < nB; i++ {
		want = append(want, 100+i)
	}
	if len(order) != len(want) {
		t.Fatalf("delivered %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("delivery[%d] = %d, want %d (full: %v)", i, order[i], want[i], order)
		}
	}
}

// --- reserved-seq trains ---------------------------------------------------
//
// A train is what a transmission is to the medium: n receivers with delays
// dᵢ in no particular order and an airtime, i.e. a leading edge at start+dᵢ
// and a trailing edge at start+dᵢ+air per receiver, scheduled receiver by
// receiver. trainSim plays one seeded script of trains, ordinary timers,
// cancels, same-tick reschedules, Stop calls and RunUntil deadlines in one
// of two forms: every edge scheduled up front with ScheduleAt, or 2n seq
// numbers reserved and two cursors walking the edges in (delay, index)
// order — on to the next edge while Advance grants it, back into the queue
// when it does not, as the medium's cursors do.

type trainSim struct {
	k      *Kernel
	rng    *rand.Rand
	cursor bool
	timers []Timer
	trains int
	walked int // edges run on a granted Advance
}

type train struct {
	s      *trainSim
	start  Time
	air    Duration
	delays []Duration
	names  [2][]string // leading, trailing
	order  []int       // receiver indices by (delay, index)
	seq0   uint64
	pos    [2]int
}

func (tr *train) at(i, e int) Time {
	return tr.start.Add(tr.delays[i] + Duration(e)*tr.air)
}

// key is the (at, seq, name) of cursor e's next edge.
func (tr *train) key(e int) (Time, uint64, string) {
	i := tr.order[tr.pos[e]]
	return tr.at(i, e), tr.seq0 + 2*uint64(i) + uint64(e), tr.names[e][i]
}

func (tr *train) queue(e int) {
	at, seq, name := tr.key(e)
	tr.s.k.ScheduleArgSeq(at, seq, name, trainCursor(e), tr)
}

func trainCursor(e int) func(any) {
	if e == 0 {
		return trainLead
	}
	return trainTrail
}

func trainLead(x any)  { x.(*train).step(0) }
func trainTrail(x any) { x.(*train).step(1) }

func (tr *train) step(e int) {
	for {
		tr.s.edge(tr, tr.order[tr.pos[e]], e)
		if tr.pos[e]++; tr.pos[e] == len(tr.order) {
			return
		}
		if at, seq, name := tr.key(e); !tr.s.k.Advance(at, seq, name) {
			tr.queue(e)
			return
		}
		tr.s.walked++
	}
}

func (s *trainSim) startTrain() {
	n := 1 + s.rng.Intn(12)
	tr := &train{s: s, start: s.k.Now(), air: Duration(s.rng.Intn(6)) * 10 * Microsecond}
	for i := 0; i < n; i++ {
		tr.delays = append(tr.delays, Duration(s.rng.Intn(8))*10*Microsecond)
		for e, kind := range [2]string{"lead", "trail"} {
			tr.names[e] = append(tr.names[e], kind+":"+string(rune('A'+s.trains%26))+string(rune('a'+i)))
		}
	}
	s.trains++
	if !s.cursor {
		for i := 0; i < n; i++ {
			for e := 0; e < 2; e++ {
				s.k.ScheduleAt(tr.at(i, e), tr.names[e][i], func() { s.edge(tr, i, e) })
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		tr.order = append(tr.order, i)
	}
	sort.SliceStable(tr.order, func(a, b int) bool { return tr.delays[tr.order[a]] < tr.delays[tr.order[b]] })
	tr.seq0 = s.k.ReserveSeq(2 * n)
	tr.queue(0)
	tr.queue(1)
}

// edge is the model's reaction to one edge, the same in both forms.
func (s *trainSim) edge(tr *train, i, e int) {
	if s.k.Now() != tr.at(i, e) {
		panic("train edge ran at the wrong time")
	}
	switch c := s.rng.Intn(20); {
	case c < 3:
		s.timer(0) // same-tick: after everything already queued for now
	case c < 5:
		s.cancel()
	case c == 5:
		s.k.Stop() // mid-train: the next RunUntil resumes it
	case c == 6:
		s.startTrain()
	}
}

func (s *trainSim) timer(d Duration) {
	s.timers = append(s.timers, s.k.Schedule(d, "timer", func() {
		if s.rng.Intn(4) == 0 {
			s.timer(0)
		}
	}))
}

func (s *trainSim) cancel() {
	if len(s.timers) > 0 {
		s.k.Cancel(s.timers[s.rng.Intn(len(s.timers))])
	}
}

type trainRec struct {
	at        Time
	name      string
	processed uint64
}

// playTrains runs the script for seed and returns every executed (at, name)
// plus a record of the clock and Processed after each RunUntil and of the
// same-timestamp run statistics at the end, and how many edges were walked.
func playTrains(seed int64, cursor bool) ([]trainRec, int) {
	s := &trainSim{k: NewKernel(), rng: rand.New(rand.NewSource(seed)), cursor: cursor}
	var log []trainRec
	s.k.OnEvent = func(at Time, name string) { log = append(log, trainRec{at: at, name: name}) }
	for op := 0; op < 3000; op++ {
		switch c := s.rng.Intn(10); {
		case c < 2:
			s.startTrain()
		case c < 5:
			s.timer(Duration(s.rng.Intn(16)) * 5 * Microsecond)
		case c < 6:
			s.cancel()
		default:
			s.k.RunUntil(s.k.Now().Add(Duration(s.rng.Intn(12)) * 5 * Microsecond))
			log = append(log, trainRec{s.k.Now(), "until", s.k.Processed()})
		}
	}
	s.k.Run()
	for s.k.Stopped() {
		s.k.Run()
	}
	buckets, events := s.k.CohortSizes()
	return append(log, trainRec{s.k.Now(), fmt.Sprint("end, cohorts ", buckets), events}), s.walked
}

// TestReservedSeqTrains is the wall for ReserveSeq + ScheduleArgSeq: an
// event queued with a reserved seq pops exactly where an event scheduled
// when that seq was reserved would have popped.
func TestReservedSeqTrains(t *testing.T) {
	edges, walked := 0, 0
	for seed := int64(1); seed <= 16; seed++ {
		want, _ := playTrains(seed, false)
		got, n := playTrains(seed, true)
		walked += n
		if len(got) != len(want) {
			t.Fatalf("seed %d: cursor form logged %d records, up-front form %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: record %d: cursor form %+v, up-front form %+v", seed, i, got[i], want[i])
			}
		}
		edges += len(want)
	}
	if walked < edges/10 {
		t.Fatalf("only %d of %d records were edges a cursor walked to: the script no longer exercises Advance", walked, edges)
	}
	t.Logf("%d records identical in both forms, %d of them edges a cursor walked to", edges, walked)
}

func TestScheduleArgSeqPanics(t *testing.T) {
	mustPanic := func(name, want string, f func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q, want one containing %q", name, msg, want)
			}
		}()
		f()
	}
	k := NewKernel()
	k.Schedule(10, "advance", func() {})
	k.Run()
	seq := k.ReserveSeq(1)
	mustPanic("past time", "before now", func() { k.ScheduleArgSeq(k.Now()-1, seq, "late", func(any) {}, nil) })
	mustPanic("unreserved seq", "never reserved", func() { k.ScheduleArgSeq(k.Now(), seq+1, "greedy", func(any) {}, nil) })
	// Advance leaves both to the ScheduleArgSeq its caller falls back on.
	if k.Advance(k.Now()-1, seq, "late") || k.Advance(k.Now(), seq+1, "greedy") || k.Processed() != 1 {
		t.Fatal("Advance granted a key ScheduleArgSeq panics on")
	}
	k.ScheduleArgSeq(k.Now(), seq, "fine", func(any) {}, nil)
	if k.Run(); k.Processed() != 2 {
		t.Fatalf("processed %d events, want 2", k.Processed())
	}
}
