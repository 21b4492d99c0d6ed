package units

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestDBmMilliWattKnownValues(t *testing.T) {
	cases := []struct {
		dbm DBm
		mw  float64
	}{
		{0, 1},
		{10, 10},
		{20, 100},
		{-10, 0.1},
		{30, 1000},
		{-30, 0.001},
	}
	for _, c := range cases {
		if got := c.dbm.MilliWatt(); !almostEqual(got, c.mw, 1e-9*c.mw) {
			t.Errorf("%v.MilliWatt() = %v, want %v", c.dbm, got, c.mw)
		}
	}
}

func TestDBmRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw int16) bool {
		dbm := DBm(float64(raw) / 100) // -327.68 .. 327.67 dBm
		back := DBmFromMilliWatt(dbm.MilliWatt())
		return almostEqual(float64(back), float64(dbm), 1e-6)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDBmFromMilliWattNonPositive(t *testing.T) {
	if v := DBmFromMilliWatt(0); !math.IsInf(float64(v), -1) {
		t.Errorf("DBmFromMilliWatt(0) = %v, want -Inf", v)
	}
	if v := DBmFromMilliWatt(-1); !math.IsInf(float64(v), -1) {
		t.Errorf("DBmFromMilliWatt(-1) = %v, want -Inf", v)
	}
}

func TestDBLinear(t *testing.T) {
	if got := DB(3).Linear(); !almostEqual(got, 1.9953, 1e-3) {
		t.Errorf("3 dB linear = %v, want ~1.995", got)
	}
	if got := DBFromLinear(2); !almostEqual(float64(got), 3.0103, 1e-3) {
		t.Errorf("linear 2 = %v dB, want ~3.01", got)
	}
	if got := DBFromLinear(0); !math.IsInf(float64(got), -1) {
		t.Errorf("linear 0 = %v, want -Inf", got)
	}
}

func TestAddSub(t *testing.T) {
	p := DBm(-40).Add(DB(10))
	if p != DBm(-30) {
		t.Errorf("-40 dBm + 10 dB = %v, want -30 dBm", p)
	}
	if g := DBm(-30).Sub(DBm(-90)); g != DB(60) {
		t.Errorf("(-30)-(-90) = %v, want 60 dB", g)
	}
}

func TestWavelength(t *testing.T) {
	wl := (2_400 * MHz).Wavelength()
	if !almostEqual(wl, 0.1249, 1e-3) {
		t.Errorf("2.4 GHz wavelength = %v m, want ~0.125 m", wl)
	}
	wl5 := (5_000 * MHz).Wavelength()
	if wl5 >= wl {
		t.Errorf("5 GHz wavelength %v should be shorter than 2.4 GHz %v", wl5, wl)
	}
}

func TestThermalNoise(t *testing.T) {
	// kTB for 20 MHz at 290 K is about -100.9 dBm.
	n := ThermalNoiseDBm(20 * MHz)
	if float64(n) < -101.5 || float64(n) > -100.5 {
		t.Errorf("thermal noise for 20 MHz = %v, want ~-101 dBm", n)
	}
	// Wider bandwidth means more noise.
	if ThermalNoiseDBm(40*MHz) <= n {
		t.Error("40 MHz noise floor should exceed 20 MHz")
	}
}

func TestStringFormats(t *testing.T) {
	cases := []struct {
		s    interface{ String() string }
		want string
	}{
		{DBm(-82), "-82.0 dBm"},
		{DB(10), "10.0 dB"},
		{2_400 * MHz, "2.400 GHz"},
		{20 * MHz, "20.0 MHz"},
		{11 * Mbps, "11 Mbit/s"},
		{BitRate(1.3 * float64(Gbps)), "1.30 Gbit/s"},
		{250 * Kbps, "250 kbit/s"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestPow10BitIdentical holds pow10 to math.Pow(10, y) bit for bit: every
// received power in the simulator goes through it, so one differing ulp would
// move digests. Seeded inputs: the dB range the stack lives in, tenths of a
// dB as configs write them, arbitrary bit patterns (NaNs, infinities,
// subnormals, huge exponents), and the special cases by name.
func TestPow10BitIdentical(t *testing.T) {
	check := func(y float64) {
		if got, want := pow10(y), math.Pow(10, y); math.Float64bits(got) != math.Float64bits(want) &&
			!(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("pow10(%v [%#x]) = %v [%#x], math.Pow gives %v [%#x]",
				y, math.Float64bits(y), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	for _, y := range []float64{0, math.Copysign(0, -1), 0.5, -0.5, 1, -1, math.NaN(), math.Inf(1), math.Inf(-1),
		1023, 1023.5, 1023.75, 1024, -1023.75, -1024, 1025, 308, 308.5, 309, -323, -323.5, -324, -330, 1e300, -1e300,
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Nextafter(0.5, 0), math.Nextafter(0.5, 1), math.Nextafter(1024, 0)} {
		check(y)
	}
	for i := -2100; i <= 2100; i++ {
		check(float64(i))
	}
	n := 3_400_000
	if testing.Short() {
		n /= 100
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < n; i++ {
		check(r.Float64()*40 - 20)                        // p/10 for -200..200 dBm
		check(float64(r.Intn(4001)-2000) / 10 / 10)       // tenths of a dB
		check(math.Float64frombits(r.Uint64()))           // raw bit patterns
		check((r.Float64()*2 - 1) * 1100)                 // across the table's edge
		check(math.Ldexp(r.Float64()-0.5, r.Intn(24)-12)) // small magnitudes, both signs
	}
}
