// Package units holds the physical-unit helpers shared by the PHY and
// propagation layers: decibel/linear power conversion, frequencies, data
// rates and a few constants of nature. Keeping these in one place avoids a
// zoo of ad-hoc math.Pow(10, x/10) calls with inconsistent reference levels.
package units

import (
	"fmt"
	"math"
)

// SpeedOfLight is the propagation speed used for delay and wavelength
// computations, in metres per second.
const SpeedOfLight = 299_792_458.0

// BoltzmannConstant in joules per kelvin, used for thermal-noise floors.
const BoltzmannConstant = 1.380649e-23

// RoomTemperatureK is the reference temperature for noise computations.
const RoomTemperatureK = 290.0

// DBm is a power level in decibel-milliwatts.
type DBm float64

// DB is a dimensionless ratio in decibels (gains, losses, SNR).
type DB float64

// MilliWatt converts a dBm level to linear milliwatts.
func (p DBm) MilliWatt() float64 { return pow10(float64(p) / 10) }

// pow10 is math.Pow(10, y) bit for bit, with what math.Pow works out about
// its base on every call — Log(10) and the mantissa and exponent of 10^(2^k)
// from Frexp(10) and repeated squaring — worked out once. Everything else is
// math.Pow's algorithm line for line: 10^y = Exp(yf·ln 10) · Π 10^(2^k) over
// the bits k of y's integer part, carried as a mantissa and a binary exponent
// and inverted for y < 0. Its special cases (NaN, ±Inf, ±0.5) and exponents
// beyond the table go to math.Pow itself.
func pow10(y float64) float64 {
	if !(math.Abs(y) < 1<<(len(sq10m)-1)) || y == 0.5 || y == -0.5 {
		return math.Pow(10, y)
	}
	yi, yf := math.Modf(math.Abs(y))
	a1, ae := 1.0, 0
	if yf != 0 {
		if yf > 0.5 {
			yf--
			yi++
		}
		a1 = math.Exp(yf * ln10)
	}
	for i, k := int64(yi), 0; i != 0; i, k = i>>1, k+1 {
		if i&1 == 1 {
			a1 *= sq10m[k]
			ae += sq10e[k]
		}
	}
	if y < 0 {
		a1 = 1 / a1
		ae = -ae
	}
	return math.Ldexp(a1, ae)
}

// ln10 is what math.Pow computes per call, which need not be the correctly
// rounded math.Ln10; 10^(2^k) = sq10m[k] · 2^sq10e[k], squared as math.Pow
// squares them. Eleven entries keep every binary exponent inside the range
// where math.Pow's loop runs without its overflow exit.
var (
	ln10  = math.Log(10)
	sq10m [11]float64
	sq10e [11]int
)

func init() {
	x1, xe := math.Frexp(10)
	for k := range sq10m {
		sq10m[k], sq10e[k] = x1, xe
		x1 *= x1
		xe <<= 1
		if x1 < .5 {
			x1 += x1
			xe--
		}
	}
}

// Add applies a gain (or loss, when negative) to a power level.
func (p DBm) Add(g DB) DBm { return p + DBm(g) }

// Sub returns the ratio between two power levels as a gain in dB.
func (p DBm) Sub(q DBm) DB { return DB(p - q) }

func (p DBm) String() string { return fmt.Sprintf("%.1f dBm", float64(p)) }

func (g DB) String() string { return fmt.Sprintf("%.1f dB", float64(g)) }

// Linear converts a dB ratio to a linear ratio.
func (g DB) Linear() float64 { return pow10(float64(g) / 10) }

// DBmFromMilliWatt converts linear milliwatts to dBm. Zero or negative
// input maps to -infinity dBm, which the callers treat as "no signal".
func DBmFromMilliWatt(mw float64) DBm {
	if mw <= 0 {
		return DBm(math.Inf(-1))
	}
	return DBm(10 * math.Log10(mw))
}

// DBmFromWatt converts linear watts to dBm.
func DBmFromWatt(w float64) DBm { return DBmFromMilliWatt(w * 1000) }

// DBFromLinear converts a linear ratio to dB.
//
//wlan:hotpath
func DBFromLinear(r float64) DB {
	if r <= 0 {
		return DB(math.Inf(-1))
	}
	return DB(10 * math.Log10(r))
}

// Hertz is a frequency.
type Hertz float64

const (
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// Wavelength returns the free-space wavelength in metres.
func (f Hertz) Wavelength() float64 { return SpeedOfLight / float64(f) }

func (f Hertz) String() string {
	switch {
	case f >= GHz:
		return fmt.Sprintf("%.3f GHz", float64(f/GHz))
	case f >= MHz:
		return fmt.Sprintf("%.1f MHz", float64(f/MHz))
	case f >= KHz:
		return fmt.Sprintf("%.1f kHz", float64(f/KHz))
	}
	return fmt.Sprintf("%.0f Hz", float64(f))
}

// BitRate is a data rate in bits per second.
type BitRate float64

const (
	Kbps BitRate = 1e3
	Mbps BitRate = 1e6
	Gbps BitRate = 1e9
)

func (r BitRate) String() string {
	switch {
	case r >= Gbps:
		return fmt.Sprintf("%.2f Gbit/s", float64(r/Gbps))
	case r >= Mbps:
		return fmt.Sprintf("%g Mbit/s", float64(r/Mbps))
	case r >= Kbps:
		return fmt.Sprintf("%g kbit/s", float64(r/Kbps))
	}
	return fmt.Sprintf("%.0f bit/s", float64(r))
}

// ThermalNoiseDBm returns the thermal noise floor (kTB) for the given
// bandwidth at room temperature, in dBm. For 20 MHz this is about -101 dBm.
func ThermalNoiseDBm(bandwidth Hertz) DBm {
	watts := BoltzmannConstant * RoomTemperatureK * float64(bandwidth)
	return DBmFromWatt(watts)
}
