package medium

import (
	"math"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// The piecewise-SINR model must integrate bit errors over the exact overlap
// windows. These tests pin that math against closed-form expectations.

// fixedLossWorld builds a medium where every link has the same fixed loss.
type fixedLossWorld struct {
	k *sim.Kernel
	m *Medium
}

func newFixedLossWorld(seed uint64, loss units.DB) *fixedLossWorld {
	k := sim.NewKernel()
	model := spectrum.NewModel(spectrum.FixedLoss{DB: loss}, nil, nil)
	return &fixedLossWorld{k: k, m: New(k, model, rng.New(seed))}
}

// fates counts a receiver's finished locks.
type fates struct {
	NopListener
	ok, lost int
}

func (f *fates) OnRxFrame(*frame.Frame, RxInfo) { f.ok++ }
func (f *fates) OnRxError(RxInfo)               { f.lost++ }

// TestPartialOverlapMatchesExpectedPER is an oracle, not a differential: at
// SINRs placed by SINRForPER for a frame error rate of 0.1, 0.5 and 0.9, on
// 802.11b and 802.11a, a frame received whole at one SINR (one span) or with
// an interferer over its second half (two spans, both of which matter), the
// delivered fraction over 4 000 frames must sit within 4.5 binomial σ of the
// analytic product of ChunkSuccess over the spans — whatever the medium does
// to avoid computing that product.
func TestPartialOverlapMatchesExpectedPER(t *testing.T) {
	const (
		trials  = 4000
		payload = 1000
		txPower = units.DBm(16)
	)
	wire := payload + frame.DataHdrLen + frame.FCSLen
	intfPayload := 300
	seed := uint64(77) // one per case, so no two cases share their draws
	for _, c := range []struct {
		mode *phy.Mode
		rate phy.RateIdx
	}{{phy.Mode80211b(), 3}, {phy.Mode80211a(), 5}} {
		mode, rate := c.mode, c.rate
		victimAirtime := mode.Airtime(rate, wire)
		intfAirtime := mode.Airtime(rate, intfPayload+frame.DataHdrLen+frame.FCSLen)
		offset := victimAirtime - intfAirtime // the interferer ends with the victim
		spanBits := func(d sim.Duration) int { return int(float64(wire*8) * float64(d) / float64(victimAirtime)) }
		cleanBits, overlapBits := spanBits(offset), spanBits(intfAirtime)
		for _, per := range []float64{0.1, 0.5, 0.9} {
			for _, spans := range []int{1, 2} {
				seed++
				k := sim.NewKernel()
				// The positions only name the radios to the loss matrix: all
				// lie within 0.3 m, under a nanosecond of flight, so the
				// interferer's edges fall exactly where scheduled.
				names := map[geom.Point]string{geom.Pt(0, 0): "rx", geom.Pt(0.1, 0): "tx", geom.Pt(0, 0.1): "intf"}
				pairs := map[string]units.DB{
					// tx and intf never hear each other.
					spectrum.PairKey("tx", "intf"): 200,
					spectrum.PairKey("intf", "tx"): 200,
				}
				m := New(k, spectrum.NewModel(spectrum.MatrixLoss{
					Pairs:    pairs,
					Resolver: func(p geom.Point) string { return names[p] },
				}, nil, nil), rng.New(seed))
				rec := &fates{}
				rx := m.AddRadio(RadioConfig{Name: "rx", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: txPower, Listener: rec})
				noiseMW := rx.noiseFloorMW
				// Place the SINRs: one span gets the whole frame's
				// SINRForPER; with two, an interferer as strong as the noise
				// (well above the medium's detection cut) halves the SINR of
				// the second span, and the signal is bisected for the
				// product.
				sinrClean := mode.SINRForPER(rate, wire, per)
				if spans == 2 {
					lo, hi := 1e-3, 1e6
					for range 200 {
						mid := math.Sqrt(lo * hi)
						if 1-mode.ChunkSuccess(rate, mid, cleanBits)*mode.ChunkSuccess(rate, mid/2, overlapBits) > per {
							lo = mid
						} else {
							hi = mid
						}
					}
					sinrClean = math.Sqrt(lo * hi)
				}
				lossTo := func(mw float64) units.DB { return units.DB(float64(txPower) - 10*math.Log10(mw)) }
				pairs[spectrum.PairKey("tx", "rx")] = lossTo(sinrClean * noiseMW)
				sigMW := txPower.Add(-pairs[spectrum.PairKey("tx", "rx")]).MilliWatt()
				var intfMW float64
				if spans == 2 {
					pairs[spectrum.PairKey("intf", "rx")] = lossTo(noiseMW)
					intfMW = txPower.Add(-pairs[spectrum.PairKey("intf", "rx")]).MilliWatt()
				}
				tx := m.AddRadio(RadioConfig{Name: "tx", Mode: mode, Mobility: geom.Static{P: geom.Pt(0.1, 0)}, TxPower: txPower})
				intf := m.AddRadio(RadioConfig{Name: "intf", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0.1)}, TxPower: txPower})

				period := 2 * victimAirtime
				for i := 0; i < trials; i++ {
					at := sim.Duration(i) * period
					k.Schedule(at, "victim", func() {
						tx.Transmit(frame.NewData(frame.MACAddr{1}, frame.MACAddr{2}, frame.MACAddr{}, false, false, make([]byte, payload)), rate)
					})
					if spans == 2 {
						k.Schedule(at+offset, "intf", func() {
							intf.Transmit(frame.NewData(frame.MACAddr{3}, frame.MACAddr{4}, frame.MACAddr{}, false, false, make([]byte, intfPayload)), rate)
						})
					}
				}
				k.Run()

				want := mode.ChunkSuccess(rate, sigMW/noiseMW, wire*8)
				if spans == 2 {
					want = mode.ChunkSuccess(rate, sigMW/noiseMW, cleanBits) *
						mode.ChunkSuccess(rate, sigMW/(noiseMW+intfMW), overlapBits)
				}
				if rec.ok+rec.lost != trials {
					t.Fatalf("%s, PER %.1f, %d span(s): %d of %d frames locked", mode.Name, per, spans, rec.ok+rec.lost, trials)
				}
				got := float64(rec.ok) / trials
				tol := 4.5 * math.Sqrt(want*(1-want)/trials)
				t.Logf("%s, PER %.1f, %d span(s): delivered %.4f, analytic %.4f ± %.4f", mode.Name, per, spans, got, want, tol)
				if math.Abs(got-want) > tol || math.Abs(want-(1-per)) > 0.05 {
					t.Errorf("%s, PER %.1f, %d span(s): delivered %.4f, analytic %.4f ± %.4f",
						mode.Name, per, spans, got, want, tol)
				}
			}
		}
	}
}

// TestInterferenceSumsAcrossTransmitters checks that two simultaneous weak
// interferers hurt more than either alone (linear power addition).
func TestInterferenceSumsAcrossTransmitters(t *testing.T) {
	mode := phy.Mode80211b()
	run := func(both bool) int {
		// Within 0.3 m of each other: the three frames overlap exactly.
		names := map[geom.Point]string{
			geom.Pt(0, 0): "rx", geom.Pt(0.1, 0): "tx",
			geom.Pt(0, 0.1): "i1", geom.Pt(0, -0.1): "i2",
		}
		// Each interferer sits 11 dB below the signal: alone it leaves the
		// CCK-11 frame mostly decodable (SINR ≈ 11 dB), together they drop
		// SINR to ≈ 8 dB, which the steep BER curve turns into near-total
		// loss.
		pl := spectrum.MatrixLoss{
			Default: 60,
			Pairs: map[string]units.DB{
				spectrum.PairKey("i1", "rx"): 71,
				spectrum.PairKey("i2", "rx"): 71,
			},
			Resolver: func(p geom.Point) string { return names[p] },
		}
		k := sim.NewKernel()
		m := New(k, spectrum.NewModel(pl, nil, nil), rng.New(88))
		rec := &recorder{k: k}
		m.AddRadio(RadioConfig{Name: "rx", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0)}, TxPower: 16, Listener: rec})
		tx := m.AddRadio(RadioConfig{Name: "tx", Mode: mode, Mobility: geom.Static{P: geom.Pt(0.1, 0)}, TxPower: 16})
		i1 := m.AddRadio(RadioConfig{Name: "i1", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, 0.1)}, TxPower: 16})
		i2 := m.AddRadio(RadioConfig{Name: "i2", Mode: mode, Mobility: geom.Static{P: geom.Pt(0, -0.1)}, TxPower: 16})

		for i := 0; i < 200; i++ {
			at := sim.Duration(i) * 5 * sim.Millisecond
			k.Schedule(at, "victim", func() {
				tx.Transmit(frame.NewData(frame.MACAddr{1}, frame.MACAddr{2}, frame.MACAddr{}, false, false, make([]byte, 800)), 3)
			})
			k.Schedule(at, "i1", func() {
				i1.Transmit(frame.NewData(frame.MACAddr{5}, frame.MACAddr{6}, frame.MACAddr{}, false, false, make([]byte, 800)), 3)
			})
			if both {
				k.Schedule(at, "i2", func() {
					i2.Transmit(frame.NewData(frame.MACAddr{7}, frame.MACAddr{8}, frame.MACAddr{}, false, false, make([]byte, 800)), 3)
				})
			}
		}
		k.Run()
		return len(rec.frames)
	}
	one := run(false)
	two := run(true)
	if two >= one {
		t.Fatalf("two interferers (%d delivered) should hurt more than one (%d)", two, one)
	}
}

// TestMinSINRReported verifies RxInfo carries the worst segment SINR.
func TestMinSINRReported(t *testing.T) {
	w := newFixedLossWorld(99, 60)
	rec := &recorder{k: w.k}
	w.m.AddRadio(RadioConfig{Name: "rx", Mode: phy.Mode80211b(), TxPower: 16, Listener: rec,
		Mobility: geom.Static{P: geom.Pt(0, 0)}})
	tx := w.m.AddRadio(RadioConfig{Name: "tx", Mode: phy.Mode80211b(), TxPower: 16,
		Mobility: geom.Static{P: geom.Pt(0, 0)}}) // co-located: no flight time

	w.k.Schedule(0, "tx", func() {
		tx.Transmit(frame.NewData(frame.MACAddr{1}, frame.MACAddr{2}, frame.MACAddr{}, false, false, make([]byte, 100)), 0)
	})
	w.k.Run()
	if len(rec.infos) != 1 {
		t.Fatal("no delivery")
	}
	// Clean channel: SINR = RSSI - noise floor = -44 - (-93.4) ≈ 49 dB.
	got := float64(rec.infos[0].MinSINR)
	if got < 45 || got > 55 {
		t.Fatalf("MinSINR = %.1f dB, want ~49", got)
	}
}
