package mac

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// txRecorder records transmission-start events via the medium tracer.
type txRecorder struct {
	names []string
	times []sim.Time
}

func (r *txRecorder) record(b *bed) {
	b.m.Tracer = traceFunc(func(ev trace.Event) {
		if ev.Kind != trace.KindTx {
			return
		}
		r.names = append(r.names, ev.Node)
		r.times = append(r.times, ev.At)
	})
}

// traceFunc adapts a closure to the trace.Tracer interface.
type traceFunc func(ev trace.Event)

func (f traceFunc) Trace(ev trace.Event) { f(ev) }

func a11bMode() *phy.Mode { return phy.Mode80211b() }

func TestSIFSSeparationOfACK(t *testing.T) {
	// The ACK must start exactly SIFS after the data frame ends.
	b := newBed(50, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	// Co-located radios: no flight time, so the arithmetic is exact.
	a := b.addNode("a", geom.Pt(0, 0), Config{})
	c := b.addNode("c", geom.Pt(0, 0), Config{})

	rec := &txRecorder{}
	rec.record(b)

	b.k.Schedule(0, "send", func() {
		a.dcf.Enqueue(data(c.dcf.Address(), a.dcf.Address(), 300))
	})
	b.k.RunFor(50 * sim.Millisecond)

	if len(rec.times) < 2 {
		t.Fatalf("saw %d transmissions, want data+ack", len(rec.times))
	}
	mode := a.dcf.mode
	dataEnd := rec.times[0].Add(mode.Airtime(mode.MaxRate(), 300+frame.DataHdrLen+frame.FCSLen))
	gap := rec.times[1].Sub(dataEnd)
	if gap != mode.SIFS {
		t.Errorf("ACK gap = %v, want SIFS %v", gap, mode.SIFS)
	}
}

func TestRTSCTSDataAckLadder(t *testing.T) {
	// RTS → SIFS → CTS → SIFS → DATA → SIFS → ACK, all gaps exact.
	b := newBed(51, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	a := b.addNode("a", geom.Pt(0, 0), Config{RTSThreshold: 1})
	c := b.addNode("c", geom.Pt(0, 0), Config{}) // co-located: exact gaps

	rec := &txRecorder{}
	rec.record(b)

	b.k.Schedule(0, "send", func() {
		a.dcf.Enqueue(data(c.dcf.Address(), a.dcf.Address(), 500))
	})
	b.k.RunFor(100 * sim.Millisecond)

	if len(rec.times) != 4 {
		t.Fatalf("saw %d transmissions (%v), want 4", len(rec.times), rec.names)
	}
	mode := a.dcf.mode
	ctrl := mode.ControlRate(mode.MaxRate())
	lens := []sim.Duration{
		mode.Airtime(ctrl, frame.RTSLen),
		mode.Airtime(ctrl, frame.CTSLen),
		mode.Airtime(mode.MaxRate(), 500+frame.DataHdrLen+frame.FCSLen),
	}
	for i := 0; i < 3; i++ {
		gap := rec.times[i+1].Sub(rec.times[i].Add(lens[i]))
		if gap != mode.SIFS {
			t.Errorf("gap %d = %v, want SIFS %v", i, gap, mode.SIFS)
		}
	}
}

func TestBackoffFreezeResume(t *testing.T) {
	// Station B freezes its countdown while A transmits and resumes after
	// DIFS: B's transmission must come after A's frame + DIFS + remaining
	// slots, never earlier.
	b := newBed(52, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	// Co-located radios: no flight time blurs the bounds.
	a := b.addNode("a", geom.Pt(0, 0), Config{})
	c := b.addNode("c", geom.Pt(0, 0), Config{})
	sink := b.addNode("sink", geom.Pt(0, 0), Config{})

	rec := &txRecorder{}
	rec.record(b)

	// A grabs the channel; C queues during A's transmission.
	b.k.Schedule(0, "a", func() {
		a.dcf.Enqueue(data(sink.dcf.Address(), a.dcf.Address(), 1000))
	})
	b.k.Schedule(200*sim.Microsecond, "c", func() {
		c.dcf.Enqueue(data(sink.dcf.Address(), c.dcf.Address(), 300))
	})
	b.k.RunFor(100 * sim.Millisecond)

	// Find C's first data transmission.
	mode := a.dcf.mode
	aEnd := rec.times[0].Add(mode.Airtime(mode.MaxRate(), 1000+frame.DataHdrLen+frame.FCSLen))
	var cStart sim.Time
	for i, n := range rec.names {
		if n == "c" {
			cStart = rec.times[i]
			break
		}
	}
	if cStart == 0 {
		t.Fatal("c never transmitted")
	}
	// C must defer at least until A's frame + SIFS + ACK + DIFS.
	ackTime := mode.Airtime(mode.ControlRate(mode.MaxRate()), frame.ACKLen)
	earliest := aEnd.Add(mode.SIFS + ackTime + mode.DIFS())
	if cStart < earliest {
		t.Errorf("c transmitted at %v, before the earliest legal %v", cStart, earliest)
	}
	// And within CWmin slots of it.
	latest := earliest.Add(sim.Duration(mode.CWmin+1) * mode.Slot)
	if cStart > latest {
		t.Errorf("c transmitted at %v, after the latest expected %v", cStart, latest)
	}
}

func TestNAVBlocksThirdParty(t *testing.T) {
	// Using RTS/CTS, an observer that hears only the CTS must honour its
	// NAV and not transmit during the protected exchange. The positions
	// only name the radios to the loss matrix; all lie within 0.3 m, under
	// a nanosecond of flight, so the arithmetic is exact.
	positions := map[string]geom.Point{
		"a": geom.Pt(0, 0), "b": geom.Pt(0.1, 0), "obs": geom.Pt(0.2, 0),
		"osink": geom.Pt(0.21, 0),
	}
	resolver := func(p geom.Point) string {
		for n, q := range positions {
			if p == q {
				return n
			}
		}
		return "?"
	}
	// obs hears b (CTS sender) but not a (RTS sender).
	pl := spectrum.MatrixLoss{
		Default: 60,
		Pairs: map[string]units.DB{
			spectrum.PairKey("a", "obs"):   200,
			spectrum.PairKey("obs", "a"):   200,
			spectrum.PairKey("a", "osink"): 200,
		},
		Resolver: resolver,
	}
	b := newBed(53, pl)
	a := b.addNode("a", positions["a"], Config{RTSThreshold: 1})
	recv := b.addNode("b", positions["b"], Config{})
	obs := b.addNode("obs", positions["obs"], Config{})
	osink := b.addNode("osink", positions["osink"], Config{})

	rec := &txRecorder{}
	rec.record(b)

	b.k.Schedule(0, "a", func() {
		a.dcf.Enqueue(data(recv.dcf.Address(), a.dcf.Address(), 1400))
	})
	// The observer gets a frame to send right after hearing the CTS.
	b.k.Schedule(800*sim.Microsecond, "obs", func() {
		obs.dcf.Enqueue(data(osink.dcf.Address(), obs.dcf.Address(), 100))
	})
	b.k.RunFor(100 * sim.Millisecond)

	// Reconstruct: find b's CTS time and a's data end; obs must not start
	// within (cts end, data end + SIFS + ACK].
	mode := a.dcf.mode
	ctrl := mode.ControlRate(mode.MaxRate())
	var ctsAt, obsAt, dataAt sim.Time
	for i, n := range rec.names {
		switch {
		case n == "b" && ctsAt == 0:
			ctsAt = rec.times[i]
		case n == "a" && i > 0 && dataAt == 0 && rec.times[i] > ctsAt && ctsAt > 0:
			dataAt = rec.times[i]
		case n == "obs" && obsAt == 0:
			obsAt = rec.times[i]
		}
	}
	if ctsAt == 0 || obsAt == 0 || dataAt == 0 {
		t.Fatalf("missing transmissions: cts=%v data=%v obs=%v (%v)", ctsAt, dataAt, obsAt, rec.names)
	}
	dataEnd := dataAt.Add(mode.Airtime(mode.MaxRate(), 1400+frame.DataHdrLen+frame.FCSLen))
	ackEnd := dataEnd.Add(mode.SIFS + mode.Airtime(ctrl, frame.ACKLen))
	if obsAt > ctsAt && obsAt < ackEnd {
		t.Errorf("observer transmitted at %v inside the NAV-protected window (CTS %v .. ACK end %v)",
			obsAt, ctsAt, ackEnd)
	}
	if obs.dcf.Stats().NAVSets == 0 {
		t.Error("observer never set its NAV from the CTS")
	}
}

func TestEIFSAppliedAfterError(t *testing.T) {
	// After an FCS-errored reception, the next access must wait EIFS (not
	// DIFS). We verify the MAC's deferral accounting fires.
	mode := a11bMode()
	sinr := mode.SINRForPER(mode.MaxRate(), 328, 0.9)
	loss := units.DB(16 - float64(mode.NoiseFloorDBm(7).Add(units.DBFromLinear(sinr))))
	b := newBed(54, spectrum.FixedLoss{DB: loss})
	a := b.addNode("a", geom.Pt(0, 0), Config{})
	c := b.addNode("c", geom.Pt(10, 0), Config{})

	for i := 0; i < 40; i++ {
		b.k.Schedule(sim.Duration(i)*10*sim.Millisecond, "send", func() {
			a.dcf.Enqueue(data(c.dcf.Address(), a.dcf.Address(), 300))
		})
	}
	b.k.RunFor(2 * sim.Second)
	if c.dcf.Stats().EIFSDeferrals == 0 {
		t.Error("receiver never invoked EIFS after FCS errors")
	}
}
