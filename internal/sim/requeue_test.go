package sim

import (
	"math"
	"math/bits"
	"slices"
	"testing"
)

// Events that re-queue themselves, and the heap's introspection from inside
// a callback; FuzzKernelOps drives every other interleaving against refHeap.

// TestRequeueBehindPopsInOrder: events that re-queue themselves behind
// everything else queued pop in refHeap's order, and a pop takes its key
// out at once — the heap never grows past the n+1 events in rotation.
func TestRequeueBehindPopsInOrder(t *testing.T) {
	const n, rounds = 100, 20
	k := NewKernel()
	ref := newRefHeap()
	var seq uint64
	var queue func(id int, d Duration)
	queue = func(id int, d Duration) {
		ref.push(refKey{at: k.Now().Add(d), seq: seq, id: id})
		seq++
		k.Schedule(d, "rotate", func() {
			if key, ok := ref.pop(); !ok || key.id != id || key.at != k.Now() {
				t.Fatalf("pop %d: kernel ran id %d at %v, reference has %+v", k.Processed(), id, k.Now(), key)
			}
			if k.Processed() <= n*rounds {
				queue(id, Duration(n+1+id%7)*Microsecond)
			}
			if len(k.heap) > n+1 {
				t.Fatalf("pop %d: heap grew to %d keys, want at most %d", k.Processed(), len(k.heap), n+1)
			}
		})
	}
	for id := 0; id <= n; id++ {
		queue(id, Duration(id%13)*Microsecond)
	}
	k.Run()
	if len(ref.keys) != 0 || k.Processed() < n*rounds {
		t.Fatalf("ran %d events, reference still holds %d", k.Processed(), len(ref.keys))
	}
	if hw := k.HeapHighWater(); hw != n+1 {
		t.Fatalf("HeapHighWater = %d, want %d", hw, n+1)
	}
}

// TestHeapIntrospectionInsideCallback: Pending and HeapDepth never count
// the running event, before or after it schedules something.
func TestHeapIntrospectionInsideCallback(t *testing.T) {
	k := NewKernel()
	check := func(when string, pending, depth int) {
		t.Helper()
		if p, d := k.Pending(), k.HeapDepth(); p != pending || d != depth {
			t.Fatalf("%s: Pending %d HeapDepth %d, want %d and %d", when, p, d, pending, depth)
		}
	}
	var d Timer
	k.Schedule(1, "a", func() {
		check("in a", 2, 3) // b, c live; d cancelled but resident
		k.Schedule(10, "e", func() { check("in e", 0, 0) })
		check("in a, after scheduling e", 3, 4)
		k.Cancel(d)
		check("in a, after a repeated cancel", 3, 4)
	})
	k.Schedule(2, "b", func() { check("in b", 2, 3) })
	k.Schedule(3, "c", func() { check("in c", 1, 2) })
	d = k.Schedule(4, "d", func() { t.Fatal("cancelled event ran") })
	k.Cancel(d)
	check("before the run", 3, 4)
	k.Run()
	check("after the run", 0, 0)
}

// --- FuzzKernelOps ---------------------------------------------------------
//
// The script is a byte stream. Between runs the driver reads one op at a
// time; every event, when it fires, reads a count and then that many ops
// of its own, so schedules, cancels, reschedules, Stop and introspection
// all happen both outside a run and inside a callback, between its pop and
// the next. Inside a callback there is one op more: Advance, under a number
// reserved now or at an earlier Advance, which the reference grants exactly
// when nothing it holds comes first; a granted callback plays the rest of its
// ops as the event it has become. An exhausted stream reads as zeros (a
// callback that does nothing), which is also what bounds the run.

const (
	opSchedule       = iota // arg: delay in ticks (0 = same tick)
	opCancel                // arg: which timer, live or stale
	opResched               // arg: which timer; cancel it, schedule at the same tick
	opRead                  // Pending, HeapDepth and the clock against the reference
	opBurst                 // arg: cancel 17 + arg%32 live timers, newest first: forces a bulk reap
	opDeepen                // arg: schedule arg%32 far-future timers
	opStopOrRunUntil        // inside: Stop. outside, arg: RunUntil now + arg%8 ticks
	opRunOrAdvance          // outside: Run to Stop or empty. inside, arg: Advance to now + arg%4 ticks, arg&4: under an older number
)

const fuzzTick = 10 * Microsecond

type fuzzEntry struct {
	tm   Timer
	seq  uint64
	done bool // popped or cancelled
}

type kernelFuzz struct {
	t       *testing.T
	script  []byte
	k       *Kernel
	ref     *refHeap
	refNow  Time
	seq     uint64 // mirrors the kernel's schedule counter
	entries []fuzzEntry

	// What Advance's answer depends on beside the queue, and the numbers
	// reserved at one Advance for a later one.
	stopped  bool
	deadline Time
	spare    []uint64

	// The OnEvent sequence, as a count, its last timestamp and the
	// same-timestamp run statistics it implies.
	hooks   uint64
	hookAt  Time
	runLen  uint64
	cohorts [8]uint64
}

func (z *kernelFuzz) hook(at Time, name string) {
	if name != "fuzz" {
		z.t.Fatalf("OnEvent(%v, %q): every event here is named fuzz", at, name)
	}
	if at != z.hookAt {
		z.closeRun()
		z.hookAt = at
	}
	z.runLen++
	z.hooks++
}

func (z *kernelFuzz) closeRun() {
	if z.runLen > 0 {
		z.cohorts[min(bits.Len64(z.runLen-1), 7)]++
		z.runLen = 0
	}
}

// run is Run (deadline maxTime) or RunUntil from outside.
func (z *kernelFuzz) run(deadline Time) {
	z.stopped, z.deadline = false, deadline
	if deadline == maxTime {
		z.k.Run()
	} else {
		z.k.RunUntil(deadline)
	}
	z.ran(deadline)
}

// advance asks the kernel whether the callback may carry on as the event
// (at, seq) and holds the answer, and the kernel's record after it, to the
// reference. A refused event is queued and fires like any other.
func (z *kernelFuzz) advance(arg int) {
	at := z.k.Now().Add(Duration(arg%4) * fuzzTick)
	seq := z.k.ReserveSeq(2)
	z.seq += 2
	z.spare = append(z.spare, seq+1)
	if arg&4 != 0 { // the oldest number put by: before every timer scheduled since
		seq, z.spare = z.spare[0], z.spare[1:]
	}
	id := len(z.entries)
	key := refKey{at: at, seq: seq, id: id}
	z.entries = append(z.entries, fuzzEntry{seq: seq})
	want := !z.stopped && at <= z.deadline && (len(z.ref.keys) == 0 || !refLess(z.ref.keys[0], key))
	processed := z.k.Processed()
	if got := z.k.Advance(at, seq, "fuzz"); got != want {
		z.t.Fatalf("Advance(%v, %d) = %v at %v; reference: stopped %v, deadline %v, queue %+v", at, seq, got, z.refNow, z.stopped, z.deadline, z.ref.keys)
	}
	if !want {
		if z.k.Now() != z.refNow || z.k.Processed() != processed || z.hooks != processed {
			z.t.Fatalf("refused Advance(%v, %d) moved the kernel: now %v (was %v), processed %d (was %d), %d OnEvent calls",
				at, seq, z.k.Now(), z.refNow, z.k.Processed(), processed, z.hooks)
		}
		z.ref.push(key)
		z.entries[id].tm = z.k.ScheduleArgSeq(at, seq, "fuzz", func(any) { z.fire(id) }, nil)
		return
	}
	z.refNow = at
	z.entries[id].done = true
	if z.k.Now() != at || z.k.Processed() != processed+1 || z.hooks != processed+1 || z.hookAt != at {
		z.t.Fatalf("granted Advance(%v, %d): now %v, processed %d (was %d), %d OnEvent calls, the last at %v",
			at, seq, z.k.Now(), z.k.Processed(), processed, z.hooks, z.hookAt)
	}
	// The loop is at (at, seq): that key is not behind it, the one before is.
	if z.k.Passed(at, seq) || !z.k.Passed(at, seq-1) || !z.k.Passed(at-1, math.MaxUint64) || z.k.Passed(at, seq+1) {
		z.t.Fatalf("granted Advance(%v, %d): Passed does not put the loop at that key", at, seq)
	}
}

func (z *kernelFuzz) next() int {
	if len(z.script) == 0 {
		return 0
	}
	b := z.script[0]
	z.script = z.script[1:]
	return int(b)
}

func (z *kernelFuzz) schedule(d Duration) {
	id := len(z.entries)
	z.ref.push(refKey{at: z.k.Now().Add(d), seq: z.seq, id: id})
	z.entries = append(z.entries, fuzzEntry{seq: z.seq})
	z.seq++
	z.entries[id].tm = z.k.Schedule(d, "fuzz", func() { z.fire(id) })
}

// cancel cancels in both heaps and applies the kernel's bulk-reap rule to
// the reference, so HeapDepth stays comparable.
func (z *kernelFuzz) cancel(id int) {
	e := &z.entries[id]
	z.k.Cancel(e.tm)
	if e.done {
		return
	}
	e.done = true
	z.ref.cancelled[e.seq] = true
	if c := len(z.ref.cancelled); c > 16 && c > len(z.ref.keys)/2 {
		live := z.ref.keys[:0]
		for _, key := range z.ref.keys {
			if !z.ref.cancelled[key.seq] {
				live = append(live, key)
			}
		}
		z.ref.keys = nil
		clear(z.ref.cancelled)
		for _, key := range live {
			z.ref.push(key)
		}
	}
}

func (z *kernelFuzz) read() {
	z.t.Helper()
	depth := len(z.ref.keys)
	if p, d := z.k.Pending(), z.k.HeapDepth(); p != depth-len(z.ref.cancelled) || d != depth || z.k.Now() != z.refNow {
		z.t.Fatalf("kernel at %v: Pending %d HeapDepth %d; reference at %v: %d and %d",
			z.k.Now(), p, d, z.refNow, depth-len(z.ref.cancelled), depth)
	}
}

// fire is every event's callback: the reference must pop the same event,
// then the event plays its own ops.
func (z *kernelFuzz) fire(id int) {
	key, ok := z.ref.pop()
	if !ok || key.id != id || key.at != z.k.Now() {
		z.t.Fatalf("pop %d: kernel ran id %d at %v, reference has %+v (ok=%v)", z.k.Processed(), id, z.k.Now(), key, ok)
	}
	z.refNow = key.at
	z.entries[id].done = true
	for n := z.next() % 4; n > 0; n-- {
		z.step(true)
	}
}

// ran mirrors what a run that was not stopped did after its last event:
// recycled cancelled roots up to the deadline and advanced the clock.
func (z *kernelFuzz) ran(deadline Time) {
	if z.k.Stopped() {
		return
	}
	for len(z.ref.keys) > 0 && z.ref.keys[0].at <= deadline {
		key := z.ref.popRoot()
		if !z.ref.cancelled[key.seq] {
			z.t.Fatalf("run to %v returned with live event %+v still queued", deadline, key)
		}
		delete(z.ref.cancelled, key.seq)
	}
	if deadline != maxTime && deadline > z.refNow {
		z.refNow = deadline
	}
}

func (z *kernelFuzz) step(inside bool) {
	op, arg := z.next()%8, z.next()
	switch op {
	case opSchedule:
		z.schedule(Duration(arg%16) * fuzzTick)
	case opCancel, opResched:
		if len(z.entries) > 0 {
			z.cancel(arg % len(z.entries))
		}
		if op == opResched {
			z.schedule(0)
		}
	case opRead:
		z.read()
	case opBurst:
		n := 17 + arg%32
		for id := len(z.entries) - 1; id >= 0 && n > 0; id-- {
			if !z.entries[id].done {
				z.cancel(id)
				n--
			}
		}
	case opDeepen:
		for i := 0; i < arg%32; i++ {
			z.schedule(Second + Duration(i%5)*fuzzTick)
		}
	case opStopOrRunUntil:
		if inside {
			z.k.Stop()
			z.stopped = true
			return
		}
		z.run(z.k.Now().Add(Duration(arg%8) * fuzzTick))
	case opRunOrAdvance:
		if inside {
			z.advance(arg)
		} else {
			z.run(maxTime)
		}
	}
}

func FuzzKernelOps(f *testing.F) {
	// inside(ops...) is the bytes one firing event reads: a count, then
	// (op, arg) pairs.
	inside := func(ops ...byte) []byte { return append([]byte{byte(len(ops) / 2)}, ops...) }
	deep := []byte{opDeepen, 31, opDeepen, 31}

	// Callbacks that schedule nothing: every pop sifts the last leaf down.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opSchedule, 2, opRunOrAdvance, 0, opRead, 0}))
	// A callback that re-queues at the front, one that re-queues behind
	// everything, one that reschedules on its own tick; reads in between.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 1, opSchedule, 3, opRunOrAdvance, 0},
		inside(opRead, 0, opSchedule, 1, opRead, 0),
		inside(opDeepen, 1, opRead, 0),
		inside(opResched, 0, opRead, 0, opSchedule, 0)))
	// Stop from inside a callback, then schedule, cancel and read
	// from outside before resuming.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opRunOrAdvance, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opSchedule, 0, opCancel, 63, opRead, 0, opRunOrAdvance, 0}))
	f.Add(slices.Concat([]byte{opSchedule, 1, opSchedule, 2, opRunOrAdvance, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opRead, 0, opStopOrRunUntil, 7, opRead, 0}))
	// RunUntil with the deadline before the root, and with a cancelled root
	// before the deadline.
	f.Add([]byte{opSchedule, 9, opSchedule, 3, opStopOrRunUntil, 2, opRead, 0, opCancel, 1, opStopOrRunUntil, 2, opRead, 0, opRunOrAdvance, 0})
	// Enough cancels from inside a callback to bulk-reap, first thing and
	// after a re-queue.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opRunOrAdvance, 0},
		inside(opBurst, 31, opRead, 0, opSchedule, 1),
		inside(opSchedule, 1, opDeepen, 31, opBurst, 31)))
	// The same from outside, across a Stop.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opRunOrAdvance, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opBurst, 31, opRead, 0, opSchedule, 0, opRunOrAdvance, 0}))
	// A bulk reap whose survivors are out of heap order until it re-heapifies:
	// 54 far timers on a five-tick cycle, one due now, the newest 33 cancelled.
	f.Add([]byte{opDeepen, 23, opDeepen, 31, opSchedule, 0, opBurst, 16, opRunOrAdvance, 0})

	// Advance. Granted to a later tick with only far timers queued, and again
	// from there; refused after the callback's own Stop though nothing else
	// is queued.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opRunOrAdvance, 0},
		inside(opRunOrAdvance, 1, opRead, 0, opRunOrAdvance, 2)))
	f.Add(slices.Concat([]byte{opSchedule, 1, opRunOrAdvance, 0},
		inside(opStopOrRunUntil, 0, opRunOrAdvance, 1),
		[]byte{opRead, 0, opRunOrAdvance, 0}))
	// Refused beyond the deadline of the RunUntil in progress and granted
	// within it; the next RunUntil runs what was queued.
	f.Add(slices.Concat([]byte{opSchedule, 1, opStopOrRunUntil, 2},
		inside(opRunOrAdvance, 1, opRunOrAdvance, 3),
		[]byte{opRead, 0, opStopOrRunUntil, 7, opRead, 0}))
	// A cancelled timer keyed before the edge refuses it; so does a live one
	// that reaches the root only after the pop's sift.
	f.Add(slices.Concat([]byte{opSchedule, 1, opSchedule, 2, opCancel, 1, opRunOrAdvance, 0},
		inside(opRunOrAdvance, 3, opRead, 0)))
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 3, opSchedule, 2, opSchedule, 3, opRunOrAdvance, 0},
		inside(opRunOrAdvance, 3, opRead, 0)))
	// A same-tick timer scheduled by the callback runs after an edge of that
	// tick whose number is older, and before an edge of a later tick.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opRunOrAdvance, 0},
		inside(opRunOrAdvance, 1, opSchedule, 0, opRunOrAdvance, 4),
		inside(opSchedule, 0, opRunOrAdvance, 1)))

	f.Fuzz(func(t *testing.T, script []byte) {
		z := &kernelFuzz{t: t, script: script, k: NewKernel(), ref: newRefHeap()}
		z.k.OnEvent = z.hook
		for len(z.script) > 0 {
			z.step(false)
		}
		z.run(maxTime)
		for z.k.Stopped() {
			z.run(maxTime)
		}
		z.read()
		if len(z.ref.keys) != 0 || z.k.seq != z.seq {
			t.Fatalf("after the drain the reference holds %d keys; schedule counter %d, mirror %d", len(z.ref.keys), z.k.seq, z.seq)
		}
		z.closeRun()
		if cohorts, events := z.k.CohortSizes(); cohorts != z.cohorts || events != z.hooks {
			t.Fatalf("same-timestamp runs %v over %d events; the OnEvent sequence gives %v over %d", cohorts, events, z.cohorts, z.hooks)
		}
	})
}
