package phy

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/frame"
	"repro/internal/sim"
	"repro/internal/units"
)

func allModes() []*Mode {
	return []*Mode{Mode80211(), Mode80211b(), Mode80211a(), Mode80211g()}
}

func TestModeByName(t *testing.T) {
	for _, name := range []string{"802.11", "802.11a", "802.11b", "802.11g", "a", "b", "g"} {
		if _, err := ModeByName(name); err != nil {
			t.Errorf("ModeByName(%q): %v", name, err)
		}
	}
	if _, err := ModeByName("802.11be"); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestRateTables(t *testing.T) {
	b := Mode80211b()
	if b.NumRates() != 4 {
		t.Errorf("11b has %d rates, want 4", b.NumRates())
	}
	if b.Rate(3).BitRate != 11*units.Mbps {
		t.Errorf("11b top rate = %v", b.Rate(3).BitRate)
	}
	a := Mode80211a()
	if a.NumRates() != 8 {
		t.Errorf("11a has %d rates, want 8", a.NumRates())
	}
	if a.Rate(a.MaxRate()).BitRate != 54*units.Mbps {
		t.Errorf("11a top rate = %v", a.Rate(a.MaxRate()).BitRate)
	}
	// Rate tables are ascending everywhere.
	for _, m := range allModes() {
		for i := 1; i < m.NumRates(); i++ {
			if m.Rates[i].BitRate <= m.Rates[i-1].BitRate {
				t.Errorf("%s rates not ascending at %d", m.Name, i)
			}
		}
	}
}

func TestRateClamping(t *testing.T) {
	m := Mode80211b()
	if m.Rate(-5) != m.Rates[0] {
		t.Error("negative index did not clamp to 0")
	}
	if m.Rate(100) != m.Rates[3] {
		t.Error("overlarge index did not clamp to max")
	}
}

func TestControlRate(t *testing.T) {
	b := Mode80211b()
	// Data at 11 Mbit/s (idx 3) → control at 2 Mbit/s (highest basic ≤ 11).
	if got := b.ControlRate(3); got != 1 {
		t.Errorf("control rate for 11 Mbit/s = idx %d, want 1 (2 Mbit/s)", got)
	}
	// Data at 1 Mbit/s → control at 1 Mbit/s.
	if got := b.ControlRate(0); got != 0 {
		t.Errorf("control rate for 1 Mbit/s = idx %d, want 0", got)
	}
	a := Mode80211a()
	// Data at 54 → highest basic is 24 (idx 4).
	if got := a.ControlRate(7); got != 4 {
		t.Errorf("11a control rate for 54 = idx %d, want 4 (24 Mbit/s)", got)
	}
	// Data at 9 (idx 1) → basic 6 (idx 0).
	if got := a.ControlRate(1); got != 0 {
		t.Errorf("11a control rate for 9 = idx %d, want 0", got)
	}
}

func TestMACTimingConstants(t *testing.T) {
	b := Mode80211b()
	if b.Slot != 20*sim.Microsecond || b.SIFS != 10*sim.Microsecond {
		t.Errorf("11b slot/SIFS = %v/%v", b.Slot, b.SIFS)
	}
	if b.DIFS() != 50*sim.Microsecond {
		t.Errorf("11b DIFS = %v, want 50µs", b.DIFS())
	}
	if b.CWmin != 31 || b.CWmax != 1023 {
		t.Errorf("11b CW = %d/%d", b.CWmin, b.CWmax)
	}
	a := Mode80211a()
	if a.DIFS() != 34*sim.Microsecond {
		t.Errorf("11a DIFS = %v, want 34µs", a.DIFS())
	}
	if a.CWmin != 15 {
		t.Errorf("11a CWmin = %d", a.CWmin)
	}
	// EIFS exceeds DIFS everywhere.
	for _, m := range allModes() {
		if m.EIFS() <= m.DIFS() {
			t.Errorf("%s EIFS %v not greater than DIFS %v", m.Name, m.EIFS(), m.DIFS())
		}
	}
}

func TestAirtime11b(t *testing.T) {
	b := Mode80211b()
	// 1500-byte MPDU at 11 Mbit/s with long preamble:
	// 192 µs + 1500*8/11 µs = 192 + 1090.9 → 1283 µs (ceil on ns scale).
	at := b.Airtime(3, 1500)
	us := at.Microseconds()
	if us < 1282 || us > 1284 {
		t.Errorf("11b 1500B@11M airtime = %vµs, want ~1283", us)
	}
	// ACK at 2 Mbit/s: 192 + 14*8/2 = 248 µs.
	ack := b.Airtime(1, 14)
	if math.Abs(ack.Microseconds()-248) > 0.01 {
		t.Errorf("11b ACK airtime = %vµs, want 248", ack.Microseconds())
	}
	// Short preamble shaves 96 µs.
	b.UseShortPreamble()
	at2 := b.Airtime(3, 1500)
	if math.Abs(at.Microseconds()-at2.Microseconds()-96) > 0.01 {
		t.Errorf("short preamble saved %vµs, want 96", at.Microseconds()-at2.Microseconds())
	}
}

func TestAirtimeOFDM(t *testing.T) {
	a := Mode80211a()
	// 1500-byte MPDU at 54 Mbit/s: 20 + 4*ceil((22+12000)/216) = 20+4*56 = 244 µs.
	at := a.Airtime(7, 1500)
	if at != 244*sim.Microsecond {
		t.Errorf("11a 1500B@54M airtime = %v, want 244µs", at)
	}
	// At 6 Mbit/s: 20 + 4*ceil(12022/24) = 20 + 4*501 = 2024 µs.
	at6 := a.Airtime(0, 1500)
	if at6 != 2024*sim.Microsecond {
		t.Errorf("11a 1500B@6M airtime = %v, want 2024µs", at6)
	}
	// 11g adds the 6 µs signal extension.
	g := Mode80211g()
	atg := g.Airtime(7, 1500)
	if atg != 250*sim.Microsecond {
		t.Errorf("11g 1500B@54M airtime = %v, want 250µs", atg)
	}
}

func TestAirtimeMonotonicInLength(t *testing.T) {
	if err := quick.Check(func(l1, l2 uint16) bool {
		a, b := int(l1%2346), int(l2%2346)
		if a > b {
			a, b = b, a
		}
		for _, m := range allModes() {
			for ri := 0; ri < m.NumRates(); ri++ {
				if m.Airtime(RateIdx(ri), b) < m.Airtime(RateIdx(ri), a) {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// The four tests below keep the names they had when a lookup table sat in
// front of Airtime; what they pin are properties of Airtime itself.

// bothPreambles returns every mode in its long- and short-preamble variant.
func bothPreambles() []*Mode {
	ms := allModes()
	for _, m := range allModes() {
		m.UseShortPreamble()
		ms = append(ms, m)
	}
	return ms
}

// Out-of-range rate indices clamp to the ends of the rate table.
func TestAirtimeClamping(t *testing.T) {
	m := Mode80211b()
	if got, want := m.Airtime(-3, 100), m.Airtime(0, 100); got != want {
		t.Fatalf("negative rate index: %v, want clamp to %v", got, want)
	}
	if got, want := m.Airtime(RateIdx(len(m.Rates)+5), 100), m.Airtime(m.MaxRate(), 100); got != want {
		t.Fatalf("oversized rate index: %v, want clamp to %v", got, want)
	}
}

// Lengths beyond the largest legal MPDU (2346 B) are still answered, and
// airtime stays monotone across that boundary.
func TestAirtimeFallback(t *testing.T) {
	for _, m := range bothPreambles() {
		for ri := RateIdx(0); ri <= m.MaxRate(); ri++ {
			prev := m.Airtime(ri, 2346)
			for _, n := range []int{2347, 4096, 65535} {
				at := m.Airtime(ri, n)
				if at < prev {
					t.Fatalf("%s pre=%d rate=%d: airtime %v at %d B below %v at the previous length",
						m.Name, m.Preamble, ri, at, n, prev)
				}
				prev = at
			}
		}
	}
}

// A preamble switch after the first Airtime call takes effect at once and
// agrees with a mode that was switched before any call.
func TestAirtimePreambleSwitch(t *testing.T) {
	m := Mode80211b()
	long := m.Airtime(0, 500)
	m.UseShortPreamble()
	short := m.Airtime(0, 500)
	if short != long-96*sim.Microsecond {
		t.Fatalf("short preamble airtime %v, want %v", short, long-96*sim.Microsecond)
	}
	fresh := Mode80211b()
	fresh.UseShortPreamble()
	if got := fresh.Airtime(0, 500); short != got {
		t.Fatalf("switched mode %v != fresh short-preamble mode %v", short, got)
	}
}

// Airtime runs once per transmission and per NAV computation: 0 allocs.
// TestShortestFrameOutlastsSIFS is the precondition of the DCF's single
// SIFS commitment slot: a commitment follows a decoded reception, and the
// next reception a station decodes ends at least one frame later. The
// shortest frame, a 14 B ACK at the fastest rate with the short preamble
// wherever the mode has one, must last longer than SIFS in every mode.
func TestShortestFrameOutlastsSIFS(t *testing.T) {
	for _, m := range allModes() {
		m.UseShortPreamble()
		if air := m.Airtime(m.MaxRate(), frame.ACKLen); air <= m.SIFS {
			t.Errorf("%s: a %d B ACK at %v lasts %v, not longer than SIFS %v",
				m.Name, frame.ACKLen, m.Rate(m.MaxRate()), air, m.SIFS)
		}
	}
}

func TestAirtimeZeroAlloc(t *testing.T) {
	for _, m := range bothPreambles() {
		n := 0
		allocs := testing.AllocsPerRun(1000, func() {
			m.Airtime(RateIdx(n%len(m.Rates)), n%4096)
			n++
		})
		if allocs != 0 {
			t.Fatalf("%s pre=%d: Airtime allocates %v/op, want 0", m.Name, m.Preamble, allocs)
		}
	}
}

func TestFasterRateShorterAirtime(t *testing.T) {
	for _, m := range allModes() {
		for ri := 1; ri < m.NumRates(); ri++ {
			slow := m.Airtime(RateIdx(ri-1), 1500)
			fast := m.Airtime(RateIdx(ri), 1500)
			if fast >= slow {
				t.Errorf("%s: airtime at rate %d (%v) not below rate %d (%v)",
					m.Name, ri, fast, ri-1, slow)
			}
		}
	}
}

func TestBERMonotonicInSINR(t *testing.T) {
	for _, m := range allModes() {
		for ri := 0; ri < m.NumRates(); ri++ {
			prev := 1.0
			for snrDB := -10.0; snrDB <= 40; snrDB += 0.5 {
				ber := m.BER(RateIdx(ri), units.DB(snrDB).Linear())
				if ber > prev+1e-12 {
					t.Fatalf("%s rate %d: BER rose from %g to %g at %v dB",
						m.Name, ri, prev, ber, snrDB)
				}
				if ber < 0 || ber > 0.5 {
					t.Fatalf("%s rate %d: BER %g out of range", m.Name, ri, ber)
				}
				prev = ber
			}
		}
	}
}

func TestHigherRatesNeedMoreSNR(t *testing.T) {
	// The SINR needed for 10% PER on a 1000-byte frame must increase with
	// the rate index within each mode — this ordering is what rate
	// adaptation relies on.
	for _, m := range allModes() {
		prev := 0.0
		for ri := 0; ri < m.NumRates(); ri++ {
			sinr := m.SINRForPER(RateIdx(ri), 1000, 0.1)
			if sinr <= prev {
				t.Errorf("%s: required SINR for rate %d (%.2f) not above rate %d (%.2f)",
					m.Name, ri, sinr, ri-1, prev)
			}
			prev = sinr
		}
	}
}

func TestPERLimits(t *testing.T) {
	b := Mode80211b()
	// Very high SINR: essentially no loss.
	if per := b.PER(3, units.DB(40).Linear(), 1500); per > 1e-6 {
		t.Errorf("PER at 40 dB = %g, want ~0", per)
	}
	// Very low SINR: certain loss.
	if per := b.PER(3, units.DB(-10).Linear(), 1500); per < 0.9999 {
		t.Errorf("PER at -10 dB = %g, want ~1", per)
	}
	// Zero-length chunk always succeeds.
	if s := b.ChunkSuccess(3, 1e-9, 0); s != 1 {
		t.Errorf("zero-bit chunk success = %g", s)
	}
}

func TestPERIncreasesWithLength(t *testing.T) {
	a := Mode80211a()
	sinr := a.SINRForPER(4, 500, 0.1)
	if a.PER(4, sinr, 1500) <= a.PER(4, sinr, 500) {
		t.Error("longer frame should have higher PER at equal SINR")
	}
}

func TestSensitivityLadder(t *testing.T) {
	// The power at which the error model delivers each rate's test frame
	// at the standard's error rate, against the minimum input sensitivity
	// 802.11-2007 states for that rate: Table 17-13 for OFDM (PER 10 % at
	// 1000 octets) and 18.4.8.1 for 11 Mbit/s CCK (FER 8 % at 1024
	// octets). The standard's figures assume a 10 dB noise figure and
	// 5 dB of implementation margin; the model has a 7 dB noise figure
	// and no margin, so it should read offset = 8 dB more sensitive.
	const offset, tolerance = 8.0, 2.5
	a, b := Mode80211a(), Mode80211b()
	rows := []struct {
		m     *Mode
		ri    RateIdx
		bytes int
		per   float64
		std   float64 // dBm
	}{
		{a, 0, 1000, 0.1, -82},  // 6 Mbit/s
		{a, 1, 1000, 0.1, -81},  // 9
		{a, 2, 1000, 0.1, -79},  // 12
		{a, 3, 1000, 0.1, -77},  // 18
		{a, 4, 1000, 0.1, -74},  // 24
		{a, 5, 1000, 0.1, -70},  // 36
		{a, 6, 1000, 0.1, -66},  // 48
		{a, 7, 1000, 0.1, -65},  // 54
		{b, 3, 1024, 0.08, -76}, // 11 Mbit/s
	}
	for _, r := range rows {
		got := r.m.NoiseFloorDBm(7).Add(units.DBFromLinear(r.m.SINRForPER(r.ri, r.bytes, r.per)))
		if d := float64(got) + offset - r.std; math.Abs(d) > tolerance {
			t.Errorf("%s %v: sensitivity %.1f dBm is %+.1f dB off the standard's %v dBm less the %v dB offset, want within ±%v dB",
				r.m.Name, r.m.Rate(r.ri).BitRate, float64(got), d, r.std, offset, tolerance)
		}
	}
}

func TestSINRForPERInverts(t *testing.T) {
	b := Mode80211b()
	for ri := 0; ri < b.NumRates(); ri++ {
		sinr := b.SINRForPER(RateIdx(ri), 1000, 0.5)
		per := b.PER(RateIdx(ri), sinr, 1000)
		if math.Abs(per-0.5) > 0.02 {
			t.Errorf("rate %d: PER at inverted SINR = %.3f, want 0.5", ri, per)
		}
	}
}

func TestNoiseFloor(t *testing.T) {
	a := Mode80211a()
	nf := a.NoiseFloorDBm(7)
	// kTB(20 MHz) ≈ -101 dBm + 7 → ≈ -94 dBm.
	if float64(nf) < -95 || float64(nf) > -93 {
		t.Errorf("noise floor = %v, want ~-94 dBm", nf)
	}
	leg := Mode80211()
	if leg.NoiseFloorDBm(7) >= nf {
		t.Error("1 MHz FHSS noise floor should be below 20 MHz OFDM")
	}
}

func TestLowestBasic(t *testing.T) {
	for _, m := range allModes() {
		lb := m.LowestBasic()
		if !m.Rate(lb).Basic {
			t.Errorf("%s lowest basic idx %d is not basic", m.Name, lb)
		}
	}
}

func TestModulationStrings(t *testing.T) {
	mods := []Modulation{ModDBPSK, ModDQPSK, ModCCK55, ModCCK11, ModBPSK, ModQPSK, ModQAM16, ModQAM64}
	seen := map[string]bool{}
	for _, m := range mods {
		s := m.String()
		if s == "" || seen[s] {
			t.Errorf("modulation %d has empty/dup string %q", m, s)
		}
		seen[s] = true
	}
}

func BenchmarkPER(b *testing.B) {
	m := Mode80211a()
	sinr := units.DB(15).Linear()
	for i := 0; i < b.N; i++ {
		_ = m.PER(7, sinr, 1500)
	}
}

func BenchmarkAirtime(b *testing.B) {
	m := Mode80211a()
	for i := 0; i < b.N; i++ {
		_ = m.Airtime(7, 1500)
	}
}
