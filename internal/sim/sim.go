// Package sim is the discrete-event simulation kernel underneath the whole
// stack. It provides a nanosecond-resolution virtual clock, a stable
// priority queue of events, cancellable timers, and run-until/run-for
// control. The kernel is strictly single-goroutine: all model code executes
// inside event callbacks, which keeps runs bit-for-bit reproducible.
//
// The kernel is built for throughput: Event objects are recycled through a
// free list (steady-state scheduling performs zero allocations), the queue
// is a struct-of-arrays 4-ary heap — sift operations move only flat
// (at, seq, slot) keys, never *Event pointers, so they touch a fraction of
// the cache lines and incur no GC write barriers — and cancelled events are
// reaped lazily in bulk once they outnumber half the queue. Callers hold
// generation-checked Timer handles, so a recycled Event can never be
// cancelled by a stale handle.
//
// The run loop pops one event at a time, and (at, seq) pop order is the
// whole ordering contract: events run in timestamp order, same-timestamp
// events in schedule order, and an event a callback schedules at the
// current instant runs after everything already queued for that instant
// and before the clock advances. A model that knows a train of events in
// advance may take their schedule-order numbers out of the sequence at
// once (ReserveSeq) and keep a single heap entry for the train, a cursor: an
// event queued with a reserved seq (ScheduleArgSeq) pops exactly where an
// event scheduled when that seq was reserved would have popped. A cursor
// done with one event of its train asks Advance whether the next is also the
// next thing the loop would run; if so it has become that event, on the
// kernel's books as if popped, and carries on without touching the heap, and
// only otherwise queues itself and returns. A periodic source may hold one
// number for life (traffic's saturator): a tick's key is then (instant, that
// number) whether or not the ticks before it ran, so the source can skip idle
// ticks and ask Passed which instants are behind it. The price is the
// exact-nanosecond tie: such a tick runs before every event scheduled after
// the number was taken.
package sim

import (
	"fmt"
	"math"
	"math/bits"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds. It mirrors
// time.Duration semantics but is a distinct type so wall-clock durations
// cannot be mixed into the simulation accidentally.
type Duration int64

// Convenience duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Add advances a time by a duration.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span between two times.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds converts a duration to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Microseconds converts a duration to floating-point microseconds.
func (d Duration) Microseconds() float64 { return float64(d) / float64(Microsecond) }

func (t Time) String() string {
	return fmt.Sprintf("%.6fs", float64(t)/float64(Second))
}

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.1fµs", d.Microseconds())
	}
	return fmt.Sprintf("%dns", int64(d))
}

// Event is a scheduled callback. Events are owned and recycled by the
// kernel; model code refers to them only through Timer handles.
type Event struct {
	at     Time
	seq    uint64 // tie-break: schedule order
	slot   int32  // permanent index into Kernel.slots; heap keys carry it
	loc    int8   // where the event lives: free list or heap
	gen    uint32 // bumped on each recycle; Timer handles carry a copy
	fn     func()
	argFn  func(any) // static-dispatch alternative to fn; arg carries state
	arg    any
	name   string
	cancel bool
}

// Event locations. The heap does not track exact positions — sifts move
// only keys — so the kernel records which structure owns each event.
const (
	locFree int8 = iota // on the free list, or executed and detached
	locHeap             // queued in the heap
)

// Timer is a cancellable handle to a scheduled event. The zero value is an
// inert handle: Scheduled reports false and Cancel is a no-op. Handles stay
// safe after their event fires — the generation check prevents a stale
// handle from touching a recycled Event.
type Timer struct {
	e   *Event
	gen uint32
}

// Scheduled reports whether the event is still pending: queued, not
// cancelled and not yet executed. An event stops being pending the moment
// its callback starts, so a callback sees its own timer as not scheduled.
func (t Timer) Scheduled() bool {
	return t.e != nil && t.e.gen == t.gen && t.e.loc != locFree && !t.e.cancel
}

// heapKey is one struct-of-arrays heap element: the (at, seq) ordering key
// plus the slot of its payload Event. Sifts move only these flat 24-byte
// keys — no pointers, so no GC write barriers, and a 4-child comparison
// reads at most two contiguous cache lines instead of chasing four *Event.
type heapKey struct {
	at   Time
	seq  uint64
	slot int32
}

// keyLess orders heap keys by (time, schedule order).
//
//wlan:hotpath
func keyLess(a, b heapKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// Kernel is the simulation executive. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now    Time
	runSeq uint64    // seq of the event running or last run: (now, runSeq) is where the loop is
	heap   []heapKey // 4-ary min-heap on (at, seq); payloads stay in slots
	// slots is the payload side of the struct-of-arrays heap: every Event
	// this kernel ever created, at its permanent slot index. Events never
	// move, so heap keys can name them with an int32.
	slots     []*Event
	free      []int32 // recycled events, by slot id — no pointers, no barriers
	seq       uint64
	cancelled int // cancelled events still sitting in the heap
	stopped   bool
	deadline  Time // of the Run/RunUntil in progress or last made
	// Hooks for instrumentation; may be nil.
	OnEvent func(at Time, name string)
	// processed counts events executed, for diagnostics and tests.
	processed uint64
	// Same-timestamp run statistics, an observation of the executed
	// sequence: runLen events have executed back to back at runAt. A
	// closed run lands in cohortSizes[i] when its length is in
	// (2^(i-1), 2^i], the last bucket catching everything larger. Plain
	// fields — internal/core flushes them into the metrics registry at
	// run-chunk boundaries, so the run loop never pays an atomic.
	runAt       Time
	runLen      uint64
	cohortSizes [8]uint64
	heapHW      int // max heap depth observed, for diagnostics
}

// NewKernel returns a kernel with the clock at zero and an empty queue.
func NewKernel() *Kernel {
	return &Kernel{}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Passed reports whether the run loop is beyond the key (at, seq): an event
// queued under it in time would have run. Inside a callback that is every key
// before the running event's; after RunUntil reached its deadline, every key
// at or before the clock.
func (k *Kernel) Passed(at Time, seq uint64) bool {
	return at < k.now || at == k.now && seq < k.runSeq
}

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of live (non-cancelled) events in the queue.
func (k *Kernel) Pending() int { return k.HeapDepth() - k.cancelled }

// CohortSizes returns the same-timestamp run statistics: a cohort is a
// maximal run of consecutively executed events sharing one timestamp.
// buckets[i] counts runs of length in (2^(i-1), 2^i] (the last bucket
// unbounded) and events sums the lengths. The call closes the run in
// progress — later events at the same timestamp start a new one — so
// every executed event is in a counted run and events equals Processed.
// internal/core diffs successive snapshots to feed the metrics registry.
func (k *Kernel) CohortSizes() (buckets [8]uint64, events uint64) {
	k.closeRun()
	return k.cohortSizes, k.processed
}

// closeRun files the same-timestamp run in progress under its size bucket.
//
//wlan:hotpath
func (k *Kernel) closeRun() {
	if k.runLen == 0 {
		return
	}
	b := bits.Len64(k.runLen - 1)
	if b > 7 {
		b = 7
	}
	k.cohortSizes[b]++
	k.runLen = 0
}

// HeapDepth returns the number of heap-resident events right now
// (including cancelled ones not yet reaped).
func (k *Kernel) HeapDepth() int { return len(k.heap) }

// HeapHighWater returns the maximum heap depth observed so far.
func (k *Kernel) HeapHighWater() int { return k.heapHW }

// PoolSize returns the number of Event slots this kernel has ever
// allocated (the pool's footprint).
func (k *Kernel) PoolSize() int { return len(k.slots) }

// FreeEvents returns how many pooled events are on the free list.
func (k *Kernel) FreeEvents() int { return len(k.free) }

// Stopped reports whether the last Run/RunUntil returned because Stop was
// called rather than because the queue drained or the deadline passed.
func (k *Kernel) Stopped() bool { return k.stopped }

// --- struct-of-arrays 4-ary heap -----------------------------------------

// up restores the heap property from position i toward the root.
//
//wlan:hotpath
func (k *Kernel) up(i int) {
	h := k.heap
	key := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !keyLess(key, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = key
}

// down restores the heap property from position i toward the leaves.
//
//wlan:hotpath
func (k *Kernel) down(i int) {
	h := k.heap
	n := len(h)
	key := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if keyLess(h[j], h[m]) {
				m = j
			}
		}
		if !keyLess(h[m], key) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = key
}

// --- event pool ----------------------------------------------------------

func (k *Kernel) getEvent() *Event {
	if n := len(k.free); n > 0 {
		e := k.slots[k.free[n-1]]
		k.free = k.free[:n-1]
		return e
	}
	e := &Event{slot: int32(len(k.slots))}
	k.slots = append(k.slots, e)
	return e
}

// putEvent recycles a detached event. Bumping gen invalidates every Timer
// handle that still points at it. The callback fields are deliberately NOT
// cleared — the next insert overwrites every one of them, and nilling
// pointers here costs a GC write barrier per recycled event on the hottest
// kernel path. A free-listed event may therefore briefly pin its last
// callback and argument; both belong to the same scenario as the kernel,
// so nothing outlives its owner.
//
//wlan:hotpath
func (k *Kernel) putEvent(e *Event) {
	e.gen++
	e.cancel = false
	e.loc = locFree
	k.free = append(k.free, e.slot)
}

// --- scheduling ----------------------------------------------------------

// badSchedule builds the panic for an event in the past or on a seq that
// was never reserved, away from the annotated insert paths.
func (k *Kernel) badSchedule(at Time, seq uint64, name string) {
	if at < k.now {
		panic(fmt.Sprintf("sim: event %q scheduled at %v before now %v", name, at, k.now))
	}
	panic(fmt.Sprintf("sim: event %q queued with seq %d, never reserved (next is %d)", name, seq, k.seq))
}

// insert is the shared allocation-free insert path.
//
//wlan:hotpath
func (k *Kernel) insert(at Time, seq uint64, name string, fn func(), argFn func(any), arg any) Timer {
	e := k.getEvent()
	e.at = at
	e.seq = seq
	e.fn = fn
	e.argFn = argFn
	e.arg = arg
	e.name = name
	e.loc = locHeap
	k.heap = append(k.heap, heapKey{at: at, seq: seq, slot: e.slot})
	k.up(len(k.heap) - 1)
	if len(k.heap) > k.heapHW {
		k.heapHW = len(k.heap)
	}
	return Timer{e: e, gen: e.gen}
}

// ScheduleAt queues fn to run at the absolute time at. Scheduling in the
// past panics: that is always a model bug.
func (k *Kernel) ScheduleAt(at Time, name string, fn func()) Timer {
	if at < k.now {
		k.badSchedule(at, k.seq, name)
	}
	return k.insert(at, k.ReserveSeq(1), name, fn, nil, nil)
}

// Schedule queues fn to run after delay d (which may be zero: the event runs
// after all events already queued for the current instant).
func (k *Kernel) Schedule(d Duration, name string, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v for event %q", d, name))
	}
	return k.ScheduleAt(k.now.Add(d), name, fn)
}

// ReserveSeq takes the next n schedule-order numbers out of the sequence
// and returns the first: exactly the numbers n Schedule calls made now
// would have consumed. Each is good for one ScheduleArgSeq.
//
//wlan:hotpath
func (k *Kernel) ReserveSeq(n int) uint64 {
	seq := k.seq
	k.seq += uint64(n)
	return seq
}

// ScheduleArgSeq queues a static callback and its argument (package-level
// func + pointer: no closure is allocated) at the absolute time at, under a
// schedule-order number taken earlier with ReserveSeq: the event pops where
// one scheduled at reservation time would have. Like every schedule call it
// panics on a time in the past, and on a seq that was never reserved;
// queueing one seq twice is a caller bug the kernel does not detect.
//
//wlan:hotpath
func (k *Kernel) ScheduleArgSeq(at Time, seq uint64, name string, fn func(any), arg any) Timer {
	if at < k.now || seq >= k.seq {
		k.badSchedule(at, seq, name)
	}
	return k.insert(at, seq, name, nil, fn, arg)
}

// Cancel marks an event so it will not fire. Cancelling zero, fired or
// already-cancelled handles is a no-op. Cancelled events are reclaimed
// lazily: when the run loop pops them, or in bulk once they exceed half
// the queue.
func (k *Kernel) Cancel(t Timer) {
	e := t.e
	if e == nil || e.gen != t.gen || e.loc == locFree || e.cancel {
		return
	}
	e.cancel = true
	e.fn = nil
	e.argFn = nil
	e.arg = nil
	k.cancelled++
	if k.cancelled > 16 && k.cancelled > k.HeapDepth()/2 {
		k.reapCancelled()
	}
}

// reapCancelled rebuilds the queue without its cancelled events and recycles
// them. Heap layout among live events does not affect pop order — (at, seq)
// is a strict total order — so rebuilding cannot perturb determinism.
func (k *Kernel) reapCancelled() {
	h := k.heap
	live := h[:0]
	for _, key := range h {
		e := k.slots[key.slot]
		if e.cancel {
			k.cancelled--
			k.putEvent(e)
		} else {
			live = append(live, key)
		}
	}
	k.heap = live
	for i := (len(live) - 2) >> 2; i >= 0; i-- {
		k.down(i)
	}
}

// Stop makes the current Run call return after the in-flight event finishes.
func (k *Kernel) Stop() { k.stopped = true }

// maxTime is the far-future deadline Run uses to drain everything.
const maxTime = Time(math.MaxInt64)

// arrive moves the loop's record onto the event (at, seq, name): the clock,
// the same-timestamp run statistics, the hook and the count.
//
//wlan:hotpath
func (k *Kernel) arrive(at Time, seq uint64, name string) {
	k.now, k.runSeq = at, seq
	if at != k.runAt {
		k.closeRun()
		k.runAt = at
	}
	k.runLen++
	if k.OnEvent != nil {
		k.OnEvent(at, name)
	}
	k.processed++
}

// execute runs one live, popped event at key.at.
//
//wlan:hotpath
func (k *Kernel) execute(key heapKey, e *Event) {
	if key.at < k.now {
		panic("sim: queue yielded event in the past")
	}
	k.arrive(key.at, key.seq, e.name)
	fn, argFn, arg := e.fn, e.argFn, e.arg
	k.putEvent(e) // recycle before invoking: the callback may reschedule
	if argFn != nil {
		argFn(arg)
	} else {
		fn()
	}
}

// Advance is for a callback about to queue its continuation under a reserved
// seq and return. It reports whether the run loop would execute that event
// next — not stopped, at within the deadline of the Run or RunUntil in
// progress, no queued key, live or cancelled, before (at, seq) — and if so
// leaves the kernel as popping it would have: clock, Passed, same-timestamp
// run, OnEvent(at, name), Processed; the callback is that event now.
// Otherwise nothing changes and the callback queues it: ScheduleArgSeq also
// owns the panics for a key in the past or never reserved.
//
//wlan:hotpath
func (k *Kernel) Advance(at Time, seq uint64, name string) bool {
	if k.stopped || at > k.deadline || at < k.now || seq >= k.seq {
		return false
	}
	if len(k.heap) > 0 && keyLess(k.heap[0], heapKey{at: at, seq: seq}) {
		return false
	}
	k.arrive(at, seq, name)
	return true
}

// drainStep pops the earliest event at or before the deadline and executes
// it, recycling any cancelled events it meets on the way. It reports false
// when nothing remains at or before the deadline.
//
//wlan:hotpath
func (k *Kernel) drainStep() bool {
	for {
		h := k.heap
		if len(h) == 0 || h[0].at > k.deadline {
			return false
		}
		key := h[0]
		n := len(h) - 1
		h[0] = h[n]
		k.heap = h[:n]
		if n > 0 {
			k.down(0)
		}
		e := k.slots[key.slot]
		if e.cancel {
			k.cancelled--
			k.putEvent(e)
			continue
		}
		k.execute(key, e)
		return true
	}
}

// Run executes events until the queue drains or Stop is called.
func (k *Kernel) Run() {
	k.stopped, k.deadline = false, maxTime
	for !k.stopped && k.drainStep() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (if it is in the future) and returns. A run cut short by
// Stop leaves the clock at the last executed event: events at or before the
// deadline may still be queued, and the next Run or RunUntil resumes them.
func (k *Kernel) RunUntil(deadline Time) {
	k.stopped, k.deadline = false, deadline
	for !k.stopped && k.drainStep() {
	}
	if !k.stopped && k.now <= deadline {
		k.now, k.runSeq = deadline, math.MaxUint64 // beyond every key of that instant
	}
}

// RunFor executes events for a span of virtual time from now.
func (k *Kernel) RunFor(d Duration) {
	k.RunUntil(k.now.Add(d))
}

// Ticker repeatedly invokes fn every period until cancelled. The first tick
// fires after one period. It returns a cancel function.
func (k *Kernel) Ticker(period Duration, name string, fn func()) (cancel func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	var ev Timer
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		fn()
		if !stopped {
			ev = k.Schedule(period, name, tick)
		}
	}
	ev = k.Schedule(period, name, tick)
	return func() {
		stopped = true
		k.Cancel(ev)
	}
}
