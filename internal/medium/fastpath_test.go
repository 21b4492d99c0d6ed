package medium

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// addStatic places a radio with the quiet listener at (x, 0).
func addStatic(m *Medium, name string, x float64) *Radio {
	return m.AddRadio(RadioConfig{
		Name: name, Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(x, 0)}, TxPower: 15,
	})
}

// Steady-state transmit fan-out must stay within a small allocation budget
// regardless of receiver count: the row is built once, transmissions,
// arrivals and kernel events are pooled, the wire buffer is reused, and one
// decode serves the fan-out.
func TestTransmitFanoutAllocsBounded(t *testing.T) {
	k, m := testbed(42)
	tx := addStatic(m, "tx", 0)
	for i := 0; i < 7; i++ {
		addStatic(m, string(rune('a'+i)), 5+float64(i))
	}
	f := dataFrame(500)

	// Warm the pools and build the fan-out row.
	for i := 0; i < 8; i++ {
		k.Schedule(0, "tx", func() { tx.Transmit(f, 3) })
		k.Run()
	}

	allocs := testing.AllocsPerRun(100, func() {
		k.Schedule(0, "tx", func() { tx.Transmit(f, 3) })
		k.Run()
	})
	// The fan-out itself is allocation-free since the zero-copy decode
	// (TestSteadyStateFanoutZeroAlloc); the single remaining alloc is this
	// test's own scheduling closure. Pre-pooling this was ~6 allocs per
	// receiver plus the wire image, the decode copy and closures.
	if allocs > 1 {
		t.Fatalf("transmit fan-out to 7 receivers allocates %v/op, want <= 1", allocs)
	}
	if m.LinkCacheMisses != 7 || m.LinkCacheHits != 7*m.Transmissions {
		t.Fatalf("%d transmissions computed %d links and served %d row entries, want 7 and %d: not the row walk",
			m.Transmissions, m.LinkCacheMisses, m.LinkCacheHits, 7*m.Transmissions)
	}
}

// send transmits one frame from r and runs the kernel dry.
func send(k *sim.Kernel, r *Radio) {
	k.Schedule(0, "tx", func() { r.Transmit(dataFrame(200), 0) })
	k.Run()
}

// wantMisses sends from each transmitter in turn and checks that
// LinkCacheMisses rises by exactly rise over all of them — one row rebuild
// per transmitter, rise being the sum of their static candidate counts —
// and then stays flat when they all send again.
func wantMisses(t *testing.T, k *sim.Kernel, m *Medium, rise uint64, why string, txs ...*Radio) {
	t.Helper()
	before := m.LinkCacheMisses
	for _, tx := range txs {
		send(k, tx)
	}
	if got := m.LinkCacheMisses - before; got != rise {
		t.Fatalf("%s: first sends computed %d static links, want %d", why, got, rise)
	}
	for _, tx := range txs {
		send(k, tx)
	}
	if got := m.LinkCacheMisses - before; got != rise {
		t.Fatalf("%s: repeat sends recomputed %d static links, want none", why, got-rise)
	}
}

// A receiver far outside detection range is pruned by the range check and
// never enters the transmitter's row; moving it into range must rebuild the
// row — once — and resume delivery.
func TestFanoutRowInvalidation(t *testing.T) {
	k, m := testbed(7)
	tx := addStatic(m, "tx", 0)
	near := &recorder{k: k}
	addStatic(m, "near", 8).SetListener(near)
	rec := &recorder{k: k}
	far := m.AddRadio(RadioConfig{
		Name: "far", Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(1e7, 0)}, TxPower: 15, Listener: rec,
	})

	// Only the near radio survives the range check, so only its link is computed.
	wantMisses(t, k, m, 1, "initial build", tx)
	if len(rec.frames) != 0 {
		t.Fatalf("radio 10000 km away decoded %d frames", len(rec.frames))
	}
	if len(near.frames) != 2 {
		t.Fatalf("near radio decoded %d frames, want 2", len(near.frames))
	}
	hits := m.LinkCacheHits
	send(k, tx)
	if m.LinkCacheHits != hits+1 {
		t.Fatalf("a one-entry row served %d entries in one transmission", m.LinkCacheHits-hits)
	}

	far.SetMobility(geom.Static{P: geom.Pt(5, 0)})
	wantMisses(t, k, m, 2, "after SetMobility", tx)
	if len(rec.frames) != 2 {
		t.Fatalf("moved-in radio decoded %d frames, want 2", len(rec.frames))
	}

	// A radio added mid-run joins every row at the next transmission.
	late := &recorder{k: k}
	addStatic(m, "late", 12).SetListener(late)
	wantMisses(t, k, m, 3, "after AddRadio", tx)
	if len(late.frames) != 2 {
		t.Fatalf("late radio decoded %d frames, want 2", len(late.frames))
	}
}

// Rows also serve models whose range cannot be bounded (here: shadowing
// present, loss time-invariant), built from all radios. A static→mobile→
// static round trip must cost every transmitter exactly one rebuild per
// step, and a radio keeps receiving while it is mobile.
func TestFanoutRowShadowedPath(t *testing.T) {
	k := sim.NewKernel()
	src := rng.New(11)
	model := spectrum.NewModel(
		spectrum.FreeSpace{Freq: 2412 * units.MHz},
		spectrum.NewShadowing(src.Split("shadow"), 3), nil)
	m := New(k, model, src)
	tx := addStatic(m, "tx", 0)
	tx2 := addStatic(m, "tx2", 3)
	rec := &recorder{k: k}
	rx := m.AddRadio(RadioConfig{
		Name: "rx", Mode: phy.Mode80211b(),
		Mobility: geom.Static{P: geom.Pt(5, 0)}, TxPower: 15, Listener: rec,
	})
	far := &recorder{k: k}
	addStatic(m, "far", 1e7).SetListener(far)
	if m.sp.enabled {
		t.Fatal("shadowed model must not enable range pruning")
	}

	// Without pruning every other static radio is a candidate: 3 each.
	wantMisses(t, k, m, 6, "initial build", tx, tx2)
	rx.SetMobility(geom.Linear{Start: geom.Pt(5, 0), Velocity: geom.Vector{X: 1}})
	wantMisses(t, k, m, 4, "rx went mobile", tx, tx2)
	rx.SetMobility(geom.Static{P: geom.Pt(6, 0)})
	wantMisses(t, k, m, 6, "rx static again", tx, tx2)

	if len(rec.frames) != 12 {
		t.Fatalf("receiver decoded %d of 12 frames across the mutations", len(rec.frames))
	}
	if len(far.frames) != 0 {
		t.Fatalf("radio 10000 km away decoded %d frames", len(far.frames))
	}
}

// A medium holds at most 1<<linkIDBits radios: one more would alias link
// ids, and with them shadowing and fading draws.
func TestAddRadioBound(t *testing.T) {
	_, m := testbed(3)
	addStatic(m, "a", 0)
	m.radios = append(m.radios, make([]*Radio, 1<<linkIDBits-2)...)
	last := addStatic(m, "last", 1)
	if got := linkID(last, last); got != 1<<(2*linkIDBits)-1 {
		t.Fatalf("largest link id = %#x, want 40 bits set", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddRadio accepted radio number 1<<linkIDBits + 1")
		}
	}()
	addStatic(m, "one too many", 2)
}
