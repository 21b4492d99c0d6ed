// Package phy models the 802.11 physical layer: the rate tables and MAC
// timing parameters of 802.11 (FHSS), 802.11b (DSSS/CCK), 802.11a (OFDM)
// and 802.11g (ERP-OFDM), preamble/PLCP framing overheads, per-frame
// airtime, and SNR→BER→PER reception models per modulation.
//
// The package is pure computation — no events, no state — which keeps it
// independently testable; the medium package owns radio state machines.
package phy

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/units"
)

// Modulation identifies the symbol constellation of a rate, which selects
// the BER curve.
type Modulation uint8

// Supported modulations.
const (
	ModDBPSK Modulation = iota // 802.11 1 Mbit/s, 11b 1 Mbit/s
	ModDQPSK                   // 2 Mbit/s
	ModCCK55                   // 11b 5.5 Mbit/s
	ModCCK11                   // 11b 11 Mbit/s
	ModBPSK                    // OFDM 6/9
	ModQPSK                    // OFDM 12/18
	ModQAM16                   // OFDM 24/36
	ModQAM64                   // OFDM 48/54
)

func (m Modulation) String() string {
	switch m {
	case ModDBPSK:
		return "DBPSK"
	case ModDQPSK:
		return "DQPSK"
	case ModCCK55:
		return "CCK-5.5"
	case ModCCK11:
		return "CCK-11"
	case ModBPSK:
		return "BPSK"
	case ModQPSK:
		return "QPSK"
	case ModQAM16:
		return "16-QAM"
	case ModQAM64:
		return "64-QAM"
	}
	return fmt.Sprintf("mod(%d)", uint8(m))
}

// Rate is one entry of a mode's rate table.
type Rate struct {
	// Bits per second on air.
	BitRate units.BitRate
	// Mod selects the error model.
	Mod Modulation
	// Basic marks rates in the basic rate set (used for control frames and
	// broadcasts).
	Basic bool
}

func (r Rate) String() string { return r.BitRate.String() }

// RateIdx indexes into a mode's rate table. The rate-adaptation drivers
// traffic exclusively in indexes.
type RateIdx int

// PreambleKind selects DSSS long or short preamble framing.
type PreambleKind uint8

// Preamble kinds.
const (
	PreambleLong PreambleKind = iota
	PreambleShort
)

// Mode describes one PHY standard: its rate table, channel parameters and
// the MAC timing constants the standard derives from it.
type Mode struct {
	Name      string
	Band      units.Hertz // carrier band for propagation
	Bandwidth units.Hertz // noise bandwidth
	Rates     []Rate

	// MAC timing parameters (clause 9/15/17/18/19 values).
	Slot     sim.Duration
	SIFS     sim.Duration
	CWmin    int
	CWmax    int
	Preamble PreambleKind

	// ofdm marks OFDM symbol-based airtime computation.
	ofdm bool
	// signalExt is the 802.11g 6 µs signal-extension appended to OFDM
	// transmissions in the 2.4 GHz band.
	signalExt sim.Duration
	// plcpLong / plcpShort are DSSS/FHSS preamble+PLCP header durations.
	plcpLong  sim.Duration
	plcpShort sim.Duration
}

// The four modes built here. They are exposed as functions returning fresh
// values so callers can tweak copies (e.g. short preamble) without aliasing.

// Mode80211 is the original 1997 FHSS PHY: 1 and 2 Mbit/s at 2.4 GHz.
func Mode80211() *Mode {
	return &Mode{
		Name:      "802.11",
		Band:      2_400 * units.MHz,
		Bandwidth: 1 * units.MHz,
		Rates: []Rate{
			{BitRate: 1 * units.Mbps, Mod: ModDBPSK, Basic: true},
			{BitRate: 2 * units.Mbps, Mod: ModDQPSK, Basic: false},
		},
		Slot:      50 * sim.Microsecond,
		SIFS:      28 * sim.Microsecond,
		CWmin:     15,
		CWmax:     1023,
		plcpLong:  128 * sim.Microsecond,
		plcpShort: 128 * sim.Microsecond,
	}
}

// Mode80211b is the DSSS/CCK PHY: 1, 2, 5.5, 11 Mbit/s at 2.4 GHz.
func Mode80211b() *Mode {
	return &Mode{
		Name:      "802.11b",
		Band:      2_400 * units.MHz,
		Bandwidth: 22 * units.MHz,
		Rates: []Rate{
			{BitRate: 1 * units.Mbps, Mod: ModDBPSK, Basic: true},
			{BitRate: 2 * units.Mbps, Mod: ModDQPSK, Basic: true},
			{BitRate: 5_500 * units.Kbps, Mod: ModCCK55, Basic: false},
			{BitRate: 11 * units.Mbps, Mod: ModCCK11, Basic: false},
		},
		Slot:      20 * sim.Microsecond,
		SIFS:      10 * sim.Microsecond,
		CWmin:     31,
		CWmax:     1023,
		plcpLong:  192 * sim.Microsecond, // 144 µs preamble + 48 µs header at 1 Mbit/s
		plcpShort: 96 * sim.Microsecond,  // 72 µs + 24 µs
	}
}

// Mode80211a is the OFDM PHY: 6–54 Mbit/s at 5 GHz.
func Mode80211a() *Mode {
	return &Mode{
		Name:      "802.11a",
		Band:      5_000 * units.MHz,
		Bandwidth: 20 * units.MHz,
		Rates:     ofdmRates(),
		Slot:      9 * sim.Microsecond,
		SIFS:      16 * sim.Microsecond,
		CWmin:     15,
		CWmax:     1023,
		ofdm:      true,
	}
}

// Mode80211g is the ERP-OFDM PHY: OFDM rates at 2.4 GHz with the 6 µs
// signal extension. The long 20 µs slot is used for 802.11b coexistence.
func Mode80211g() *Mode {
	return &Mode{
		Name:      "802.11g",
		Band:      2_400 * units.MHz,
		Bandwidth: 20 * units.MHz,
		Rates:     ofdmRates(),
		Slot:      20 * sim.Microsecond,
		SIFS:      10 * sim.Microsecond,
		CWmin:     15,
		CWmax:     1023,
		ofdm:      true,
		signalExt: 6 * sim.Microsecond,
	}
}

func ofdmRates() []Rate {
	return []Rate{
		{BitRate: 6 * units.Mbps, Mod: ModBPSK, Basic: true},
		{BitRate: 9 * units.Mbps, Mod: ModBPSK, Basic: false},
		{BitRate: 12 * units.Mbps, Mod: ModQPSK, Basic: true},
		{BitRate: 18 * units.Mbps, Mod: ModQPSK, Basic: false},
		{BitRate: 24 * units.Mbps, Mod: ModQAM16, Basic: true},
		{BitRate: 36 * units.Mbps, Mod: ModQAM16, Basic: false},
		{BitRate: 48 * units.Mbps, Mod: ModQAM64, Basic: false},
		{BitRate: 54 * units.Mbps, Mod: ModQAM64, Basic: false},
	}
}

// ModeByName resolves "802.11", "802.11a", "802.11b", "802.11g" (also
// accepts the bare suffix letters "a", "b", "g").
func ModeByName(name string) (*Mode, error) {
	switch name {
	case "802.11", "legacy":
		return Mode80211(), nil
	case "802.11a", "a":
		return Mode80211a(), nil
	case "802.11b", "b":
		return Mode80211b(), nil
	case "802.11g", "g":
		return Mode80211g(), nil
	}
	return nil, fmt.Errorf("phy: unknown mode %q", name)
}

// UseShortPreamble selects the short DSSS preamble where defined.
func (m *Mode) UseShortPreamble() { m.Preamble = PreambleShort }

// DIFS returns the DCF interframe space: SIFS + 2 slots.
func (m *Mode) DIFS() sim.Duration { return m.SIFS + 2*m.Slot }

// EIFS returns the extended interframe space used after an errored
// reception: SIFS + ACK-airtime(lowest basic rate) + DIFS.
func (m *Mode) EIFS() sim.Duration {
	ackTime := m.Airtime(m.LowestBasic(), 14) // ACK is 14 bytes
	return m.SIFS + ackTime + m.DIFS()
}

// NumRates returns the size of the rate table.
func (m *Mode) NumRates() int { return len(m.Rates) }

// Rate returns the rate at index i, clamped into range.
func (m *Mode) Rate(i RateIdx) Rate {
	if i < 0 {
		i = 0
	}
	if int(i) >= len(m.Rates) {
		i = RateIdx(len(m.Rates) - 1)
	}
	return m.Rates[i]
}

// MaxRate returns the index of the fastest rate.
func (m *Mode) MaxRate() RateIdx { return RateIdx(len(m.Rates) - 1) }

// LowestBasic returns the index of the slowest basic rate.
func (m *Mode) LowestBasic() RateIdx {
	for i, r := range m.Rates {
		if r.Basic {
			return RateIdx(i)
		}
	}
	return 0
}

// ControlRate returns the highest basic rate not faster than the given data
// rate — the standard's rule for ACK/CTS rate selection.
func (m *Mode) ControlRate(data RateIdx) RateIdx {
	best := m.LowestBasic()
	for i := 0; i <= int(data) && i < len(m.Rates); i++ {
		if m.Rates[i].Basic {
			best = RateIdx(i)
		}
	}
	return best
}

// plcpOverhead returns preamble+PLCP header duration for non-OFDM modes.
func (m *Mode) plcpOverhead() sim.Duration {
	if m.Preamble == PreambleShort && m.plcpShort > 0 {
		return m.plcpShort
	}
	return m.plcpLong
}

// Airtime returns the on-air duration of an MPDU of mpduBytes transmitted
// at rate index ri (clamped into the rate table), including preamble and
// PLCP framing.
//
//wlan:hotpath
func (m *Mode) Airtime(ri RateIdx, mpduBytes int) sim.Duration {
	r := m.Rate(ri)
	if m.ofdm {
		// 16 µs preamble + 4 µs SIGNAL, then 4 µs symbols carrying
		// SERVICE(16) + payload + TAIL(6) bits, plus any signal extension.
		bitsPerSymbol := float64(r.BitRate) * 4e-6
		nSym := math.Ceil((16 + 6 + 8*float64(mpduBytes)) / bitsPerSymbol)
		return 20*sim.Microsecond + sim.Duration(nSym)*4*sim.Microsecond + m.signalExt
	}
	// DSSS/FHSS: preamble+PLCP at fixed rate, then payload at data rate.
	payload := sim.Duration(math.Ceil(8 * float64(mpduBytes) / float64(r.BitRate) * 1e9))
	return m.plcpOverhead() + payload
}

// NoiseFloorDBm returns the receiver noise floor: thermal noise over the
// mode bandwidth plus the noise figure.
func (m *Mode) NoiseFloorDBm(noiseFigure units.DB) units.DBm {
	return units.ThermalNoiseDBm(m.Bandwidth).Add(noiseFigure)
}
