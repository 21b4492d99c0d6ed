package traffic

import (
	"testing"

	"repro/internal/sim"
)

func deliverSeq(s *Sink, flow uint32, seq uint64) {
	buf := make([]byte, HeaderLen)
	EncodeHeader(buf, Header{FlowID: flow, Seq: seq, SentAt: 0})
	s.Deliver(buf)
}

// A bounded sink must agree with the exact seen-set for every pattern that
// fits inside the window: duplicates, reordering, gaps.
func TestBoundedSinkAgreesWithinWindow(t *testing.T) {
	k := sim.NewKernel()
	exact, bounded := NewSink(k), NewSink(k)
	bounded.Bound()

	// Consecutive, duplicated, reordered and gapped arrivals — all within
	// the window.
	pattern := []uint64{0, 1, 2, 2, 3, 5, 4, 4, 10, 7, 10, 6, 100, 99, 100}
	for _, seq := range pattern {
		deliverSeq(exact, 1, seq)
		deliverSeq(bounded, 1, seq)
	}
	fe, fb := exact.Flow(1), bounded.Flow(1)
	if fe.Received != fb.Received || fe.Duplicates != fb.Duplicates || fe.OutOfOrder != fb.OutOfOrder {
		t.Fatalf("bounded diverged inside the window: exact recv=%d dup=%d ooo=%d, bounded recv=%d dup=%d ooo=%d",
			fe.Received, fe.Duplicates, fe.OutOfOrder, fb.Received, fb.Duplicates, fb.OutOfOrder)
	}
}

// Beyond the window the bounded sink forgets: an ancient duplicate reports
// as new. That is the documented memory/accuracy trade.
func TestBoundedSinkForgetsBeyondWindow(t *testing.T) {
	k := sim.NewKernel()
	s := NewSink(k)
	s.Bound()

	deliverSeq(s, 1, 0)
	deliverSeq(s, 1, seenWindow+10) // pushes seq 0 out of the window
	deliverSeq(s, 1, 0)             // ancient duplicate: forgotten, counts as new
	f := s.Flow(1)
	if f.Duplicates != 0 {
		t.Fatalf("Duplicates = %d, want 0 (ancient dup should be forgotten)", f.Duplicates)
	}
	if f.Received != 3 {
		t.Fatalf("Received = %d, want 3", f.Received)
	}
	// A recent duplicate is still caught.
	deliverSeq(s, 1, seenWindow+10)
	if f.Duplicates != 1 {
		t.Fatalf("Duplicates = %d after recent dup, want 1", f.Duplicates)
	}
}

// The bounded sink's steady state performs zero allocations per delivery —
// the property core's TestSoakSteadyState depends on.
func TestBoundedSinkZeroAllocSteadyState(t *testing.T) {
	k := sim.NewKernel()
	s := NewSink(k)
	s.Bound()

	buf := make([]byte, HeaderLen)
	seq := uint64(0)
	for ; seq < 2*seenWindow; seq++ { // warm: flow created, window filled
		EncodeHeader(buf, Header{FlowID: 1, Seq: seq, SentAt: 0})
		s.Deliver(buf)
	}
	allocs := testing.AllocsPerRun(5000, func() {
		EncodeHeader(buf, Header{FlowID: 1, Seq: seq, SentAt: 0})
		s.Deliver(buf)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("bounded Deliver allocates %v/op steady state, want 0", allocs)
	}
}
