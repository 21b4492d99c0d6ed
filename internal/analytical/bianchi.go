// Package analytical implements closed-form performance models used to
// validate the simulator: Bianchi's saturation-throughput model for the
// 802.11 DCF (basic access and RTS/CTS) and the classic ALOHA family
// throughput laws. Experiment F1 overlays these curves on simulated points;
// agreement within a few percent is the simulator's key calibration check.
package analytical

import (
	"math"

	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/sim"
)

// BianchiParams configures the DCF model.
type BianchiParams struct {
	Mode *phy.Mode
	// DataRate/ControlRate are the rates used for payload and control
	// frames (indexes into the mode's table).
	DataRate phy.RateIdx
	// PayloadBytes is the MSDU size (MAC body, excluding MAC overhead).
	PayloadBytes int
	// RTS enables the RTS/CTS access method.
	RTS bool
	// CWmin/CWmax override the mode's values when > 0.
	CWmin, CWmax int
	// PropDelay is the one-way propagation delay (delta in the model).
	PropDelay sim.Duration
}

// BianchiResult carries the fixed-point solution.
type BianchiResult struct {
	Tau        float64 // per-slot transmission probability
	P          float64 // conditional collision probability
	Throughput float64 // saturation goodput in bits/s (payload bits only)
	Ts, Tc     sim.Duration
}

// Bianchi solves the two-equation fixed point of Bianchi (2000) for n
// saturated stations and evaluates the normalized saturation throughput.
func Bianchi(n int, prm BianchiParams) BianchiResult {
	mode := prm.Mode
	cwMin, cwMax := mode.CWmin, mode.CWmax
	if prm.CWmin > 0 {
		cwMin = prm.CWmin
	}
	if prm.CWmax > 0 {
		cwMax = prm.CWmax
	}
	w := float64(cwMin + 1)
	m := math.Log2(float64(cwMax+1) / float64(cwMin+1))

	// Fixed point: start from p=0 and iterate.
	tau, p := 0.0, 0.0
	for i := 0; i < 10000; i++ {
		tau = 2 * (1 - 2*p) / ((1-2*p)*(w+1) + p*w*(1-math.Pow(2*p, m)))
		pNew := 1 - math.Pow(1-tau, float64(n-1))
		if math.Abs(pNew-p) < 1e-12 {
			p = pNew
			break
		}
		// Damped update for stability at large n.
		p = 0.5*p + 0.5*pNew
	}

	wire := prm.PayloadBytes + frame.DataHdrLen + frame.FCSLen
	ctrl := mode.ControlRate(prm.DataRate)
	dataT := mode.Airtime(prm.DataRate, wire)
	ackT := mode.Airtime(ctrl, frame.ACKLen)
	delta := prm.PropDelay

	var ts, tc sim.Duration
	if prm.RTS {
		rtsT := mode.Airtime(ctrl, frame.RTSLen)
		ctsT := mode.Airtime(ctrl, frame.CTSLen)
		ts = rtsT + mode.SIFS + ctsT + mode.SIFS + dataT + mode.SIFS + ackT + mode.DIFS() + 4*delta
		tc = rtsT + mode.DIFS() + delta
	} else {
		ts = dataT + mode.SIFS + ackT + mode.DIFS() + 2*delta
		// A collided data frame occupies the channel for its airtime, then
		// everyone waits EIFS-ish; Bianchi uses DIFS for simplicity.
		tc = dataT + mode.DIFS() + delta
	}

	ptr := 1 - math.Pow(1-tau, float64(n))
	var ps float64
	if ptr > 0 {
		ps = float64(n) * tau * math.Pow(1-tau, float64(n-1)) / ptr
	}
	sigma := mode.Slot
	payloadBits := float64(prm.PayloadBytes * 8)
	den := (1-ptr)*sigma.Seconds() + ptr*ps*ts.Seconds() + ptr*(1-ps)*tc.Seconds()
	var s float64
	if den > 0 {
		s = ps * ptr * payloadBits / den
	}
	return BianchiResult{Tau: tau, P: p, Throughput: s, Ts: ts, Tc: tc}
}

// PureAlohaS returns the pure-ALOHA goodput law S = G·e^{-2G} (frames per
// frame time).
func PureAlohaS(g float64) float64 { return g * math.Exp(-2*g) }

// SlottedAlohaS returns the slotted-ALOHA law S = G·e^{-G}.
func SlottedAlohaS(g float64) float64 { return g * math.Exp(-g) }
