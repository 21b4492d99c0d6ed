// Package rate implements the driver-level rate-adaptation controllers that
// MAC/driver papers of the 802.11 era proposed and compared: the fixed-rate
// baseline, ARF (Kamerman & Monteban), AARF (Lacage et al.), SampleRate
// (Bicket) and a Minstrel-style EWMA sampler (madwifi/mac80211).
//
// Controllers satisfy the mac.RateController interface structurally; this
// package depends only on frame and phy, so policies remain decoupled from
// the MAC mechanism. Each keeps its per-destination state by value in one
// frame.Peers table, so a decision allocates nothing after first contact;
// step thresholds and sampling cadences are package constants.
package rate

import (
	"repro/internal/frame"
	"repro/internal/phy"
)

// Fixed always selects the same rate index.
type Fixed struct {
	Mode *phy.Mode
	Idx  phy.RateIdx
}

// NewFixed returns a controller pinned to rate index idx of mode.
func NewFixed(mode *phy.Mode, idx phy.RateIdx) *Fixed {
	return &Fixed{Mode: mode, Idx: idx}
}

// SelectRate implements the controller interface.
func (f *Fixed) SelectRate(dst frame.MACAddr, _ int, _ int) phy.RateIdx {
	if dst.IsGroup() {
		return f.Mode.LowestBasic()
	}
	return f.Idx
}

// OnTxResult implements the controller interface.
func (f *Fixed) OnTxResult(frame.MACAddr, phy.RateIdx, bool) {}

// Name returns the controller name for experiment tables.
func (f *Fixed) Name() string { return "fixed" }

// ARF step thresholds: the consecutive successes needed to step up (the
// classic value, and AARF's starting point) and AARF's cap on them.
const (
	arfStepUp     = 10
	aarfStepUpCap = 50
)

// arfState is the per-destination state of ARF/AARF.
type arfState struct {
	idx        phy.RateIdx
	succ       int // consecutive successes at the current rate
	fails      int // consecutive failures
	probing    bool
	succNeeded int // AARF: adaptive success threshold
}

// ARF is Auto Rate Fallback: step up after arfStepUp consecutive successes,
// step down after two consecutive failures; a failure on the first frame
// after a step-up (the "probe") steps straight back down.
type ARF struct {
	Mode *phy.Mode
	// adaptive enables AARF behaviour (threshold doubling on failed probes).
	adaptive bool

	peers frame.Peers[arfState]
}

// NewARF builds the classic ARF controller starting at the lowest rate.
func NewARF(mode *phy.Mode) *ARF {
	return &ARF{Mode: mode}
}

// NewAARF builds the adaptive variant: the success threshold doubles (up to
// aarfStepUpCap) every time a probe fails, making probing rarer on stable
// channels.
func NewAARF(mode *phy.Mode) *ARF {
	a := NewARF(mode)
	a.adaptive = true
	return a
}

// Name returns the controller name for experiment tables.
func (a *ARF) Name() string {
	if a.adaptive {
		return "aarf"
	}
	return "arf"
}

// state returns (creating on first contact) the per-destination state; the
// pointer must not be held across calls.
func (a *ARF) state(dst frame.MACAddr) *arfState {
	s, fresh := a.peers.Get(dst)
	if fresh {
		*s = arfState{idx: a.Mode.LowestBasic(), succNeeded: arfStepUp}
	}
	return s
}

// SelectRate implements the controller interface.
//
//wlan:hotpath
func (a *ARF) SelectRate(dst frame.MACAddr, _ int, _ int) phy.RateIdx {
	if dst.IsGroup() {
		return a.Mode.LowestBasic()
	}
	return a.state(dst).idx
}

// OnTxResult implements the controller interface.
//
//wlan:hotpath
func (a *ARF) OnTxResult(dst frame.MACAddr, _ phy.RateIdx, success bool) {
	if dst.IsGroup() {
		return
	}
	s := a.state(dst)
	if success {
		s.fails = 0
		s.succ++
		s.probing = false
		if s.succ >= s.succNeeded && s.idx < a.Mode.MaxRate() {
			s.idx++
			s.succ = 0
			s.probing = true // next frame at the new rate is the probe
		}
		return
	}
	s.succ = 0
	s.fails++
	stepDown := false
	if s.probing {
		// Probe failed: immediate fallback.
		stepDown = true
		if a.adaptive {
			s.succNeeded *= 2
			if s.succNeeded > aarfStepUpCap {
				s.succNeeded = aarfStepUpCap
			}
		}
	} else if s.fails >= 2 {
		stepDown = true
		s.succNeeded = arfStepUp // AARF restarts from the classic value
	}
	if stepDown {
		s.probing = false
		s.fails = 0
		if s.idx > 0 {
			s.idx--
		}
	}
}
