package mac

import (
	"bytes"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

var (
	ta1 = frame.MACAddr{2, 0, 0, 0, 0, 1}
	ta2 = frame.MACAddr{2, 0, 0, 0, 0, 2}
	ta3 = frame.MACAddr{2, 0, 0, 0, 0, 3}
)

// df builds a data MPDU as rxTable.accept sees it.
func df(ta frame.MACAddr, seq uint16, fragN uint8, more, retry bool, body []byte) *frame.Frame {
	return &frame.Frame{
		Type: frame.TypeData, Subtype: frame.SubtypeData,
		Addr2: ta, Seq: seq, Frag: fragN, MoreFrag: more, Retry: retry,
		Body: body,
	}
}

// isDup and reasm drive rxTable.accept for one of its two answers each.
func isDup(r *rxTable, f *frame.Frame) bool {
	_, dup := r.accept(f)
	return dup
}

func reasm(r *rxTable, f *frame.Frame) *frame.Frame {
	msdu, _ := r.accept(f)
	return msdu
}

func TestDedupFiltersRetriesPerTransmitter(t *testing.T) {
	c := new(rxTable)
	if isDup(c, df(ta1, 10, 0, false, false, nil)) {
		t.Fatal("first frame flagged as duplicate")
	}
	if !isDup(c, df(ta1, 10, 0, false, true, nil)) {
		t.Fatal("retry of the accepted tuple not filtered")
	}
	// The same tuple from another transmitter is not a duplicate, and the
	// interleaving must not disturb ta1's recorded state (last-hit index).
	if isDup(c, df(ta2, 10, 0, false, true, nil)) {
		t.Fatal("ta2's first frame filtered because of ta1's state")
	}
	if !isDup(c, df(ta1, 10, 0, false, true, nil)) {
		t.Fatal("ta1 state lost after interleaved transmitter")
	}
	// Without the Retry bit an identical tuple is accepted (fresh MSDU after
	// a sequence-counter wrap, per the standard).
	if isDup(c, df(ta1, 10, 0, false, false, nil)) {
		t.Fatal("non-retry frame filtered")
	}
}

func TestDedupSeqWrap(t *testing.T) {
	c := new(rxTable)
	if isDup(c, df(ta1, frame.MaxSeq-1, 0, false, false, nil)) {
		t.Fatal("seq 4095 flagged")
	}
	// The counter wraps: seq 0 is a different tuple, retry bit or not.
	if isDup(c, df(ta1, 0, 0, false, true, nil)) {
		t.Fatal("post-wrap seq 0 filtered against seq 4095")
	}
	if !isDup(c, df(ta1, 0, 0, false, true, nil)) {
		t.Fatal("retry after wrap not filtered")
	}
}

func TestDedupManyTransmittersSteadyStateZeroAlloc(t *testing.T) {
	c := new(rxTable)
	tas := []frame.MACAddr{ta1, ta2, ta3}
	f := df(ta1, 0, 0, false, false, nil)
	for i := 0; i < 64; i++ { // warm the table past any growth
		f.Addr2 = tas[i%len(tas)]
		f.Seq = uint16(i)
		isDup(c, f)
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		f.Addr2 = tas[i%len(tas)]
		f.Seq = uint16(i % frame.MaxSeq)
		isDup(c, f)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state dedup allocates %v/op, want 0", allocs)
	}
}

// frags splits a body into n in-order fragments of one MSDU.
func frags(ta frame.MACAddr, seq uint16, body []byte, n int) []*frame.Frame {
	out := make([]*frame.Frame, 0, n)
	per := (len(body) + n - 1) / n
	for i := 0; i < n; i++ {
		lo, hi := i*per, (i+1)*per
		if hi > len(body) {
			hi = len(body)
		}
		out = append(out, df(ta, seq, uint8(i), i < n-1, false, body[lo:hi]))
	}
	return out
}

func TestReassemblyInterleavedTransmitters(t *testing.T) {
	r := new(rxTable)
	bodyA := bytes.Repeat([]byte("A0123456789"), 30)
	bodyB := bytes.Repeat([]byte("Bfedcba"), 40)
	fa := frags(ta1, 100, bodyA, 3)
	fb := frags(ta2, 200, bodyB, 2)

	// Fragments from two transmitters interleave freely; each reassembles
	// independently in its own per-transmitter record.
	if got := reasm(r, fa[0]); got != nil {
		t.Fatal("incomplete MSDU delivered")
	}
	if got := reasm(r, fb[0]); got != nil {
		t.Fatal("incomplete MSDU delivered")
	}
	if got := reasm(r, fa[1]); got != nil {
		t.Fatal("incomplete MSDU delivered")
	}
	gotB := reasm(r, fb[1])
	if gotB == nil || !bytes.Equal(gotB.Body, bodyB) {
		t.Fatalf("transmitter B reassembly wrong: %v", gotB)
	}
	if gotB.Seq != 200 || gotB.MoreFrag {
		t.Fatalf("reassembled header wrong: %+v", gotB)
	}
	gotA := reasm(r, fa[2])
	if gotA == nil || !bytes.Equal(gotA.Body, bodyA) {
		t.Fatalf("transmitter A reassembly wrong: %v", gotA)
	}
	if gotA.Addr2 != ta1 {
		t.Fatalf("reassembled TA = %v, want %v", gotA.Addr2, ta1)
	}
}

func TestReassemblyAbortsAndRecovers(t *testing.T) {
	r := new(rxTable)
	body := bytes.Repeat([]byte("xyzzy"), 50)
	fs := frags(ta1, 7, body, 3)

	// Out-of-order continuation aborts the partial...
	reasm(r, fs[0])
	if got := reasm(r, fs[2]); got != nil {
		t.Fatal("skipped fragment completed an MSDU")
	}
	// ...and the tail of the aborted MSDU goes nowhere.
	if got := reasm(r, fs[1]); got != nil {
		t.Fatal("fragment of an aborted partial delivered")
	}

	// A fragment with a different sequence number aborts too (the record held
	// seq 7; seq 8 frag 1 cannot continue it).
	reasm(r, fs[0])
	if got := reasm(r, df(ta1, 8, 1, false, false, body)); got != nil {
		t.Fatal("wrong-seq fragment continued a partial")
	}

	// A fresh unfragmented MSDU cancels a partial outright.
	reasm(r, fs[0])
	plain := df(ta1, 9, 0, false, false, []byte("fresh"))
	if got := reasm(r, plain); got != plain {
		t.Fatal("unfragmented MSDU not passed through")
	}
	if got := reasm(r, fs[1]); got != nil {
		t.Fatal("partial survived an unfragmented MSDU")
	}

	// The record recovers: a complete exchange after all the aborts works and
	// reuses the recycled body buffer.
	for i, f := range fs {
		got := reasm(r, f)
		if i < len(fs)-1 {
			if got != nil {
				t.Fatal("incomplete MSDU delivered")
			}
			continue
		}
		if got == nil || !bytes.Equal(got.Body, body) {
			t.Fatalf("post-abort reassembly wrong: %v", got)
		}
	}
}

func TestReassemblySeqWrapPartial(t *testing.T) {
	r := new(rxTable)
	body := bytes.Repeat([]byte("w"), 64)
	// A partial parked at the top of the sequence space must not accept
	// fragments from the post-wrap MSDU.
	reasm(r, df(ta1, frame.MaxSeq-1, 0, true, false, body[:32]))
	if got := reasm(r, df(ta1, 0, 1, false, false, body[32:])); got != nil {
		t.Fatal("post-wrap fragment matched the pre-wrap partial")
	}
	// The wrap MSDU reassembles cleanly from its own first fragment.
	reasm(r, df(ta1, 0, 0, true, false, body[:32]))
	got := reasm(r, df(ta1, 0, 1, false, false, body[32:]))
	if got == nil || !bytes.Equal(got.Body, body) {
		t.Fatalf("post-wrap reassembly wrong: %v", got)
	}
}

func TestReassemblySteadyStateZeroAlloc(t *testing.T) {
	r := new(rxTable)
	body := bytes.Repeat([]byte("q"), 120)
	fs := frags(ta1, 0, body, 2)
	// Warm: the record and its body buffer exist after one full MSDU.
	reasm(r, fs[0])
	reasm(r, fs[1])
	seq := uint16(1)
	allocs := testing.AllocsPerRun(200, func() {
		a := df(ta1, seq, 0, true, false, body[:60])
		b := df(ta1, seq, 1, false, false, body[60:])
		if reasm(r, a) != nil {
			t.Fatal("first fragment completed")
		}
		if got := reasm(r, b); got == nil || len(got.Body) != len(body) {
			t.Fatal("reassembly failed")
		}
		seq = (seq + 1) % frame.MaxSeq
	})
	// The two df() frames above are the only permitted allocations.
	if allocs > 2 {
		t.Fatalf("steady-state reassembly allocates %v/op beyond the test frames, want ≤2", allocs)
	}
}

// rxModel is the receiver rule FuzzRxAccept holds rxTable.accept to, kept
// in maps: a frame is a duplicate iff Retry is set and its (seq, frag)
// matches the last key accepted from its transmitter; an MSDU's fragments
// are taken in order per transmitter, and a gap or a new seq aborts it.
type rxModel struct {
	last    map[frame.MACAddr][2]int // (seq, frag) last accepted
	partial map[frame.MACAddr][]frame.Frame
}

// accept applies the rule to a frame whose body the model may keep.
func (m *rxModel) accept(f frame.Frame) (msdu []byte, complete, dup bool) {
	key := [2]int{int(f.Seq), int(f.Frag)}
	if last, ok := m.last[f.Addr2]; ok && f.Retry && last == key {
		return nil, false, true
	}
	m.last[f.Addr2] = key
	frags := m.partial[f.Addr2]
	switch {
	case f.Frag == 0:
		frags = []frame.Frame{f}
	case len(frags) > 0 && frags[0].Seq == f.Seq && int(f.Frag) == len(frags):
		frags = append(frags, f)
	default:
		frags = nil
	}
	if frags != nil && !f.MoreFrag {
		for _, g := range frags {
			msdu = append(msdu, g.Body...)
		}
		complete, frags = true, nil
	}
	m.partial[f.Addr2] = frags
	return msdu, complete, false
}

// FuzzRxAccept feeds scripts of MPDUs from three transmitters through
// rxTable.accept and checks every answer against rxModel. Each step is
// three bytes: transmitter (low two bits, mod 3), Retry (bit 2), MoreFrag
// (bit 3) and a body fill value (high nibble); seq (mod 8); frag (low
// three bits) and body length (the rest). Every body is written into one
// scratch buffer, as a pooled wire buffer would be, so a kept view shows.
// The seeds kill a first contact treated as known, a table keyed on the
// receiver address, and a key recorded only for non-Retry frames.
func FuzzRxAccept(f *testing.F) {
	f.Add([]byte{0x04, 0, 0})                         // Retry on first contact
	f.Add([]byte{0x00, 1, 0, 0x05, 1, 0})             // same tuple, other transmitter
	f.Add([]byte{0x00, 1, 0, 0x04, 2, 0, 0x04, 2, 0}) // retry of a retried MPDU
	f.Add([]byte{0x18, 3, 0x20, 0x25, 3, 0x18, 0x38, 3, 0x21, 0x40, 3, 0x22})
	f.Add([]byte{0x18, 5, 0x10, 0x20, 5, 0x12, 0x18, 6, 0x10, 0x08, 5, 0x11, 0x1c, 6, 0x11, 0x10, 6, 0x12})
	tas := [3]frame.MACAddr{ta1, ta2, ta3}
	f.Fuzz(func(t *testing.T, script []byte) {
		var r rxTable
		m := rxModel{last: map[frame.MACAddr][2]int{}, partial: map[frame.MACAddr][]frame.Frame{}}
		scratch := make([]byte, 32)
		for i := 0; i+3 <= len(script); i += 3 {
			b0, b1, b2 := script[i], script[i+1], script[i+2]
			body := scratch[:b2>>3]
			for j := range body {
				body[j] = b0>>4 + byte(j)
			}
			mpdu := df(tas[b0&3%3], uint16(b1%8), b2&7, b0&8 != 0, b0&4 != 0, body)
			mpdu.Addr1 = frame.MACAddr{2, 0, 0, 0, 0, 0xaa}
			want, complete, wantDup := m.accept(*mpdu.Clone())
			got, dup := r.accept(mpdu)
			switch {
			case dup != wantDup:
				t.Fatalf("step %d (%+v): dup = %v, want %v", i/3, *mpdu, dup, wantDup)
			case (got != nil) != complete:
				t.Fatalf("step %d (%+v): delivered %v, want complete = %v", i/3, *mpdu, got, complete)
			case got != nil && (!bytes.Equal(got.Body, want) || got.Addr2 != mpdu.Addr2 ||
				got.Seq != mpdu.Seq || got.Frag != 0 || got.MoreFrag):
				t.Fatalf("step %d (%+v): delivered %+v, want body %v", i/3, *mpdu, *got, want)
			}
		}
	})
}

// A saturated queue never fully drains, so the FIFO ring's rewind-on-empty
// path never runs; the consumed prefix must be compacted instead of growing
// one slot per delivered MSDU forever.
func TestSaturatedQueueArrayBounded(t *testing.T) {
	b := newBed(92, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	n := b.addNode("a", geom.Pt(0, 0), Config{QueueCap: 4})
	peer := b.addNode("b", geom.Pt(10, 0), Config{})
	d := n.dcf
	dst := peer.dcf.Address()
	for i := 0; i < 2000; i++ {
		for d.QueueLen() < 4 {
			if !d.Enqueue(data(dst, d.Address(), 50)) {
				break
			}
		}
		b.k.RunFor(5 * sim.Millisecond)
	}
	if st := d.Stats(); st.MSDUDelivered < 1000 {
		t.Fatalf("only %d MSDUs delivered; the saturation loop is broken", st.MSDUDelivered)
	}
	if got := cap(d.queue); got > 256 {
		t.Fatalf("saturated queue backing array grew to cap %d (len %d, head %d) — compaction broken",
			got, len(d.queue), d.qHead)
	}
}

// TestAdmitCountsDrops: Admit refuses at QueueCap with exactly one counted
// drop and holds nothing, an admitted Enqueue is accepted, and AwaitSpace
// registers a waiter only on a full queue.
func TestAdmitCountsDrops(t *testing.T) {
	b := newBed(91, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	n := b.addNode("a", geom.Pt(0, 0), Config{QueueCap: 3})
	peer := b.addNode("b", geom.Pt(10, 0), Config{})
	d := n.dcf
	dst := peer.dcf.Address()

	// The first MSDU goes straight into flight; three more fill the queue.
	for i := 0; i < 4; i++ {
		if !d.Admit() {
			t.Fatalf("Admit %d refused with %d of %d queued", i, d.QueueLen(), d.QueueCap())
		}
		if !d.Enqueue(data(dst, d.Address(), 100)) {
			t.Fatalf("admitted Enqueue %d refused", i)
		}
	}
	if drops := d.Stats().QueueDrops; drops != 0 {
		t.Fatalf("QueueDrops = %d before the queue filled, want 0", drops)
	}
	for i := 1; i <= 3; i++ {
		if d.Admit() {
			t.Fatal("Admit accepted at QueueCap")
		}
		if drops := d.Stats().QueueDrops; drops != uint64(i) {
			t.Fatalf("QueueDrops = %d after %d refusals, want one each", drops, i)
		}
	}
	if d.QueueLen() != 3 || d.Stats().MSDUQueued != 4 {
		t.Fatalf("refusals moved the queue: len %d, queued %d", d.QueueLen(), d.Stats().MSDUQueued)
	}
	if d.Enqueue(data(dst, d.Address(), 100)) || d.Stats().QueueDrops != 4 {
		t.Fatalf("Enqueue past QueueCap: want refused with one more drop, have %d drops", d.Stats().QueueDrops)
	}

	woken := 0
	if !d.AwaitSpace(func() { woken++ }) {
		t.Fatal("AwaitSpace on a full queue did not register")
	}
	b.k.RunFor(sim.Second)
	if woken != 1 || d.Busy() {
		t.Fatalf("waiter called %d times, MAC busy %v after draining", woken, d.Busy())
	}
	if d.AwaitSpace(func() { woken++ }) || len(d.spaceWaiters) != 0 {
		t.Fatal("AwaitSpace on a non-full queue registered a waiter")
	}
	if !d.Admit() || d.Stats().QueueDrops != 4 {
		t.Fatal("Admit on an empty queue refused or counted a drop")
	}
}
