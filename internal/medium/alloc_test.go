package medium

import (
	"testing"

	"repro/internal/frame"
)

// Steady-state decode in the medium fan-out must be allocation-free: the
// transmission, its arrivals, the kernel events, the wire buffer AND the
// decoded frame are all pooled, and UnmarshalInto aliases the wire instead
// of copying the body. This is the regression wall for the zero-copy decode
// path — any future byte-slice copy or closure on the path fails it.
func TestSteadyStateDecodeZeroAlloc(t *testing.T) {
	k, m := testbed(11)
	tx := addStatic(m, "tx", 0)
	addStatic(m, "rx", 8) // NopListener: pure medium+decode path

	f := dataFrame(700)
	fire := func() { tx.Transmit(f, 3) }

	// Warm the pools and build the fan-out row.
	for i := 0; i < 8; i++ {
		k.Schedule(0, "tx", fire)
		k.Run()
	}
	if tx.Stats.TxFrames == 0 {
		t.Fatal("warm-up sent nothing")
	}
	rx := m.Radios()[1]
	decodedBefore := rx.Stats.RxFrames

	allocs := testing.AllocsPerRun(200, func() {
		k.Schedule(0, "tx", fire)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state transmit+decode allocates %v/op, want 0", allocs)
	}
	if rx.Stats.RxFrames == decodedBefore {
		t.Fatal("nothing was decoded during the measured window")
	}
}

// The fan-out variant: one static transmitter walking its seven-entry row,
// one pooled decode serving all receivers. Zero allocations per
// transmission in steady state, and no row rebuild inside the window.
func TestSteadyStateFanoutZeroAlloc(t *testing.T) {
	k, m := testbed(12)
	tx := addStatic(m, "tx", 0)
	for i := 0; i < 7; i++ {
		addStatic(m, string(rune('a'+i)), 5+float64(i))
	}
	f := dataFrame(500)
	fire := func() { tx.Transmit(f, 3) }

	for i := 0; i < 8; i++ {
		k.Schedule(0, "tx", fire)
		k.Run()
	}
	hits, misses := m.LinkCacheHits, m.LinkCacheMisses
	allocs := testing.AllocsPerRun(200, func() {
		k.Schedule(0, "tx", fire)
		k.Run()
	})
	if allocs != 0 {
		t.Fatalf("fan-out to 7 receivers allocates %v/op, want 0", allocs)
	}
	// AllocsPerRun calls the function once more than it measures.
	if got := m.LinkCacheHits - hits; got != 7*201 || m.LinkCacheMisses != misses {
		t.Fatalf("measured window served %d row entries (want %d) and computed %d links (want 0): not the row walk",
			got, 7*201, m.LinkCacheMisses-misses)
	}
}

// Pooled decoded frames must never leak state between transmissions: after
// a control frame reuses the pooled Frame of a data frame, the delivered
// view must carry no residue (UnmarshalInto overwrites every field).
func TestPooledDecodeNoResidue(t *testing.T) {
	k, m := testbed(13)
	tx := addStatic(m, "tx", 0)
	rec := &recorder{k: k}
	m.Radios()[0].SetListener(NopListener{})
	addStatic(m, "rx", 8).SetListener(rec)

	data := dataFrame(300)
	data.Seq, data.Retry, data.PwrMgmt = 1234, true, true
	ack := &frame.Frame{Type: frame.TypeControl, Subtype: frame.SubtypeACK, Addr1: addrA, Duration: 77}

	k.Schedule(0, "tx", func() { tx.Transmit(data, 3) })
	k.Run()
	k.Schedule(0, "tx", func() { tx.Transmit(ack, 0) })
	k.Run()

	if len(rec.frames) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(rec.frames))
	}
	got := rec.frames[1]
	if got.Type != frame.TypeControl || got.Subtype != frame.SubtypeACK {
		t.Fatalf("second frame decoded as %v/%v", got.Type, got.Subtype)
	}
	if got.Seq != 0 || got.Retry || got.PwrMgmt || len(got.Body) != 0 || got.Addr2 != (frame.MACAddr{}) {
		t.Fatalf("pooled frame leaked state into ACK decode: %+v", got)
	}
}
