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

// refFlow is the exact duplicate detector the window replaced: a set of
// every sequence number that arrived.
type refFlow struct {
	seen                                      map[uint64]bool
	received, bytes, dups, outOfOrder, maxSeq uint64
}

func (r *refFlow) deliver(seq uint64, n int) {
	if r.seen[seq] {
		r.dups++
		return
	}
	r.seen[seq] = true
	if seq < r.maxSeq {
		r.outOfOrder++
	}
	if seq > r.maxSeq {
		r.maxSeq = seq
	}
	r.received++
	r.bytes += uint64(n)
}

// A window script is a list of 4-byte deliveries [b, extra, hi, lo] with
// v = hi<<8 | lo: the flow is b&3, the payload is HeaderLen+extra bytes
// long, and the sequence number is v for a flow's first delivery, then
// newest+v, or newest-v%seenWindow (clamped at 0) when b&opBack is set —
// newest being the flow's largest sequence number so far. So no delivery
// lags its flow's newest by seenWindow or more.
const opBack = 0x80

// windowScript encodes deliveries of absolute sequence numbers on one flow,
// each step within the range the encoding reaches.
func windowScript(flow byte, extra byte, seqs ...uint64) []byte {
	var out []byte
	var newest uint64
	for i, seq := range seqs {
		b, v := flow, seq
		switch {
		case i == 0:
		case seq >= newest:
			v = seq - newest
		default:
			b, v = flow|opBack, newest-seq
		}
		if v > 0xffff || (b&opBack != 0 && v >= seenWindow) {
			panic("windowScript: step out of range")
		}
		out = append(out, b, extra, byte(v>>8), byte(v))
		newest = max(newest, seq)
	}
	return out
}

// FuzzSinkWindow holds the sink to the exact set it replaced on every
// script whose deliveries stay inside the window: Received, Bytes,
// Duplicates, OutOfOrder and MaxSeq agree per flow after every delivery.
func FuzzSinkWindow(f *testing.F) {
	// Consecutive, duplicated, reordered and gapped arrivals.
	f.Add(windowScript(1, 0, 0, 1, 2, 2, 3, 5, 4, 4, 10, 7, 10, 6, 100, 99, 100))
	// Jumps shorter than the window clear what they skip; lags of exactly
	// seenWindow-1 still see the oldest slot; the circular bitmap wraps.
	f.Add(windowScript(0, 40, 7, 3000, 6000, 6000-(seenWindow-1), 6000-(seenWindow-1), 3000,
		9000, 9000-(seenWindow-1), 5000, 5000, 9001, 9002, 9001))
	// A slot reused after a jump longer than the window, and one after a
	// jump of two windows less one: each newer sequence number is new.
	f.Add(windowScript(0, 0, 5, 5+seenWindow+100, 5+seenWindow, 5+seenWindow,
		5+3*seenWindow-1, 5+2*seenWindow, 5+2*seenWindow))
	// A first arrival far from zero, and jumps beyond the window.
	f.Add(windowScript(2, 255, 60000, 60001, 120000, 120000-(seenWindow-1), 180000, 180000, 179999))
	// Interleaved flows, one of them starting at zero and returning to it.
	f.Add(append(append(windowScript(0, 1, 0, 4095, 0, 1, 4095, 4098, 4096, 4097), windowScript(1, 2, 10, 9, 10)...),
		windowScript(3, 3, 0, 64, 63, 0, 64, 128, 127)...))

	f.Fuzz(func(t *testing.T, script []byte) {
		k := sim.NewKernel()
		s := NewSink(k)
		var ref [4]refFlow
		buf := make([]byte, HeaderLen+255)
		for i := 0; i+4 <= len(script); i += 4 {
			b, extra, v := script[i], script[i+1], uint64(script[i+2])<<8|uint64(script[i+3])
			id := uint32(b & 3)
			r := &ref[id]
			seq := v
			switch {
			case r.seen == nil:
				r.seen = make(map[uint64]bool)
			case b&opBack != 0:
				seq = r.maxSeq - min(v%seenWindow, r.maxSeq)
			default:
				seq = r.maxSeq + v
			}
			n := HeaderLen + int(extra)
			EncodeHeader(buf, Header{FlowID: id, Seq: seq})
			s.Deliver(buf[:n])
			r.deliver(seq, n)

			got := s.Flow(id)
			if got.Received != r.received || got.Bytes != r.bytes || got.Duplicates != r.dups ||
				got.OutOfOrder != r.outOfOrder || got.MaxSeq != r.maxSeq {
				t.Fatalf("delivery %d (flow %d seq %d): sink recv=%d bytes=%d dup=%d ooo=%d max=%d, exact recv=%d bytes=%d dup=%d ooo=%d max=%d",
					i/4, id, seq, got.Received, got.Bytes, got.Duplicates, got.OutOfOrder, got.MaxSeq,
					r.received, r.bytes, r.dups, r.outOfOrder, r.maxSeq)
			}
		}
	})
}

// Beyond the window every sink forgets: an ancient duplicate reports as
// new. That is the documented memory/accuracy trade.
func TestBoundedSinkForgetsBeyondWindow(t *testing.T) {
	k := sim.NewKernel()
	s := NewSink(k)

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
	// Exactly seenWindow behind the newest is already forgotten, though its
	// slot is the newest's.
	deliverSeq(s, 1, 10)
	if f.Duplicates != 1 || f.Received != 4 {
		t.Fatalf("seq %d behind the newest: Duplicates = %d, Received = %d, want 1, 4", seenWindow, f.Duplicates, f.Received)
	}
}

// A bounded sink's steady state performs zero allocations per delivery —
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
