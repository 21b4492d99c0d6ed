package sim

import (
	"slices"
	"testing"
)

// A pop leaves the root vacant and the running callback's insert takes it.
// These tests pin the two exact consequences — a re-queue at the front
// moves no key, a re-queue behind never grows the heap — and that the
// vacancy is invisible from inside a callback; FuzzKernelOps drives every
// other interleaving against refHeap.

// TestRequeueAtFrontMovesNoKey: an event that re-queues itself ahead of
// everything else queued leaves every other key where it was, pop after
// pop. (Before the vacant root, each pop moved the last leaf to the root
// and the re-queue sifted back up past it.)
func TestRequeueAtFrontMovesNoKey(t *testing.T) {
	const n, rounds = 100, 50
	k := NewKernel()
	for i := 0; i < n; i++ {
		k.Schedule(Second+Duration(n-i)*Microsecond, "far", func() {})
	}
	var rest []heapKey
	same := func(when string) {
		t.Helper()
		if !slices.Equal(k.heap[1:], rest) {
			t.Fatalf("round %d, %s: keys below the root moved", k.Processed(), when)
		}
	}
	var cursor func()
	cursor = func() {
		same("after the pop")
		if k.Processed() < rounds {
			k.Schedule(Microsecond, "cursor", cursor)
			same("after the re-queue")
		}
	}
	k.Schedule(Microsecond, "cursor", cursor)
	rest = slices.Clone(k.heap[1:])
	k.RunUntil(Time(Second))
	if k.Processed() != rounds || k.Pending() != n {
		t.Fatalf("ran %d cursor events with %d left pending, want %d and %d", k.Processed(), k.Pending(), rounds, n)
	}
	if hw := k.HeapHighWater(); hw != n+1 {
		t.Fatalf("HeapHighWater = %d, want %d", hw, n+1)
	}
}

// TestRequeueBehindSiftsDownOnly: events that re-queue themselves after
// everything else queued still pop in refHeap's order, and the insert goes
// through the vacant root — the heap never grows past its starting length.
func TestRequeueBehindSiftsDownOnly(t *testing.T) {
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
// the running event, whether or not something has taken its place yet.
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
// all happen both outside a run and inside a callback whose root is
// vacant. An exhausted stream reads as zeros (a callback that does
// nothing), which is also what bounds the run.

const (
	opSchedule       = iota // arg: delay in ticks (0 = same tick)
	opCancel                // arg: which timer, live or stale
	opResched               // arg: which timer; cancel it, schedule at the same tick
	opRead                  // Pending, HeapDepth and the clock against the reference
	opBurst                 // arg: cancel 17 + arg%32 live timers, newest first: forces a bulk reap
	opDeepen                // arg: schedule arg%32 far-future timers
	opStopOrRunUntil        // inside: Stop. outside, arg: RunUntil now + arg%8 ticks
	opRun                   // outside only: Run to Stop or empty
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
			return
		}
		deadline := z.k.Now().Add(Duration(arg%8) * fuzzTick)
		z.k.RunUntil(deadline)
		z.ran(deadline)
	case opRun:
		if !inside {
			z.k.Run()
			z.ran(maxTime)
		}
	}
}

func FuzzKernelOps(f *testing.F) {
	// inside(ops...) is the bytes one firing event reads: a count, then
	// (op, arg) pairs.
	inside := func(ops ...byte) []byte { return append([]byte{byte(len(ops) / 2)}, ops...) }
	deep := []byte{opDeepen, 31, opDeepen, 31}

	// Callbacks that schedule nothing: every pop is settled by the next pop.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opSchedule, 2, opRun, 0, opRead, 0}))
	// A callback that re-queues at the front, one that re-queues behind
	// everything, one that reschedules on its own tick; reads in between.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 1, opSchedule, 3, opRun, 0},
		inside(opRead, 0, opSchedule, 1, opRead, 0),
		inside(opDeepen, 1, opRead, 0),
		inside(opResched, 0, opRead, 0, opSchedule, 0)))
	// Stop from inside with the root vacant, then schedule, cancel and read
	// from outside before resuming.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opRun, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opSchedule, 0, opCancel, 63, opRead, 0, opRun, 0}))
	f.Add(slices.Concat([]byte{opSchedule, 1, opSchedule, 2, opRun, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opRead, 0, opStopOrRunUntil, 7, opRead, 0}))
	// RunUntil with the deadline before the root, and with a cancelled root
	// before the deadline.
	f.Add([]byte{opSchedule, 9, opSchedule, 3, opStopOrRunUntil, 2, opRead, 0, opCancel, 1, opStopOrRunUntil, 2, opRead, 0, opRun, 0})
	// Enough cancels from inside a callback to bulk-reap while the root is
	// vacant, first thing and after a re-queue.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opSchedule, 2, opRun, 0},
		inside(opBurst, 31, opRead, 0, opSchedule, 1),
		inside(opSchedule, 1, opDeepen, 31, opBurst, 31)))
	// The same from outside, across a Stop.
	f.Add(slices.Concat(deep, []byte{opSchedule, 1, opRun, 0},
		inside(opStopOrRunUntil, 0),
		[]byte{opBurst, 31, opRead, 0, opSchedule, 0, opRun, 0}))

	f.Fuzz(func(t *testing.T, script []byte) {
		z := &kernelFuzz{t: t, script: script, k: NewKernel(), ref: newRefHeap()}
		for len(z.script) > 0 {
			z.step(false)
		}
		z.k.Run()
		for z.k.Stopped() {
			z.k.Run()
		}
		z.ran(maxTime)
		z.read()
		if len(z.ref.keys) != 0 || z.k.seq != z.seq {
			t.Fatalf("after the drain the reference holds %d keys; schedule counter %d, mirror %d", len(z.ref.keys), z.k.seq, z.seq)
		}
	})
}
