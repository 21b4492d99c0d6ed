package sim

import (
	"math/rand"
	"testing"
)

// --- reference implementation --------------------------------------------
//
// refHeap is a deliberately naive binary min-heap on (at, seq) with lazy
// cancellation: the simplest credible model of the kernel's ordering
// contract. The differential test below drives it in lock-step with the
// struct-of-arrays 4-ary heap and demands identical pop sequences.

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

// pop removes and returns the minimum live key, skipping cancelled entries.
// ok is false when the heap holds no live keys.
func (h *refHeap) pop() (refKey, bool) {
	for len(h.keys) > 0 {
		min := h.keys[0]
		n := len(h.keys) - 1
		h.keys[0] = h.keys[n]
		h.keys = h.keys[:n]
		if n > 0 {
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
		}
		if h.cancelled[min.seq] {
			delete(h.cancelled, min.seq)
			continue
		}
		return min, true
	}
	return refKey{}, false
}

// --- differential workload ------------------------------------------------

// TestDifferentialHeap drives the kernel and the naive reference heap with
// the same seeded randomized schedule/cancel/reschedule/pop workload for
// over a million operations and requires bit-identical pop sequences and
// live-event counts. Delays are quantized so many events collide on the same
// timestamp, making the seq tie-break carry the order constantly.
func TestDifferentialHeap(t *testing.T) {
	const loopOps = 1_000_000

	rng := rand.New(rand.NewSource(0xD157))
	k := NewKernel()
	ref := newRefHeap()

	type entry struct {
		id     int
		tm     Timer
		seq    uint64
		popped bool
		dead   bool
	}
	var entries []*entry
	nextID := 0
	var seq uint64 // mirrors the kernel's internal schedule counter
	var got []int  // ids delivered by the kernel, appended by callbacks
	refNow := Time(0)
	ops := 0

	schedule := func(d Duration) {
		id := nextID
		nextID++
		e := &entry{id: id, seq: seq}
		e.tm = k.Schedule(d, "diff", func() {
			got = append(got, id)
			k.Stop() // one event per Run call
		})
		ref.push(refKey{at: k.Now().Add(d), seq: seq, id: id})
		seq++
		entries = append(entries, e)
		ops++
	}

	cancel := func(e *entry) {
		k.Cancel(e.tm)
		if !e.popped && !e.dead {
			ref.cancelled[e.seq] = true
			e.dead = true
		}
		ops++
	}

	// popOne runs exactly one kernel event (every callback calls Stop) and
	// checks it against the reference pop. Returns false when both agree the
	// queue is empty.
	popOne := func() bool {
		before := k.Processed()
		k.Run()
		kernelPopped := k.Processed() != before
		key, refPopped := ref.pop()
		if kernelPopped != refPopped {
			t.Fatalf("op %d: kernel popped=%v, reference popped=%v", ops, kernelPopped, refPopped)
		}
		if !kernelPopped {
			return false
		}
		id := got[len(got)-1]
		if id != key.id {
			t.Fatalf("op %d: pop #%d diverged: kernel delivered id %d, reference id %d", ops, len(got), id, key.id)
		}
		if key.at < refNow {
			t.Fatalf("reference time went backwards: %v after %v", key.at, refNow)
		}
		refNow = key.at
		if k.Now() != key.at {
			t.Fatalf("clock mismatch: kernel %v, reference %v", k.Now(), key.at)
		}
		entries[id].popped = true
		if live := len(ref.keys) - len(ref.cancelled); k.Pending() != live {
			t.Fatalf("op %d: kernel reports %d pending, reference holds %d live keys", ops, k.Pending(), live)
		}
		ops++
		return true
	}

	for i := 0; i < loopOps; i++ {
		switch c := rng.Intn(100); {
		case c < 45:
			// Quantized delays (including zero) force timestamp collisions.
			schedule(Duration(rng.Intn(64)) * 10 * Microsecond)
		case c < 60:
			if len(entries) > 0 {
				cancel(entries[rng.Intn(len(entries))])
			}
		case c < 72:
			// Reschedule: cancel a random (possibly stale) timer, then
			// schedule a replacement — often landing on the same tick.
			if len(entries) > 0 {
				cancel(entries[rng.Intn(len(entries))])
				schedule(Duration(rng.Intn(8)) * 10 * Microsecond)
			}
		default:
			popOne()
		}
	}
	// Drain to empty: the full tail must agree too.
	for popOne() {
	}
	if ops < 1_000_000 {
		t.Fatalf("workload ran only %d operations, want >= 1M", ops)
	}
	if k.Pending() != 0 {
		t.Fatalf("kernel reports %d pending after drain", k.Pending())
	}
	if k.seq != seq {
		t.Fatalf("schedule counter mismatch: kernel %d, mirror %d", k.seq, seq)
	}
	t.Logf("differential workload: %d ops, %d schedules, %d pops, all identical", ops, nextID, len(got))
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
