package rate

import (
	"repro/internal/frame"
	"repro/internal/phy"
	"repro/internal/rng"
)

// maxRates bounds every PHY mode's rate table (the OFDM modes top out at 8
// entries). The per-peer stat arrays are inlined at this size, so creating
// a peer costs no allocation beyond the (amortised) peer-table growth —
// the last per-peer indirection the controllers had. The constructors
// reject larger modes loudly rather than corrupt state.
const maxRates = 8

// Sampling cadences: SampleRate probes on every samplePeriod-th first
// attempt, Minstrel looks around on lookAroundPct percent of them and folds
// its windows into the EWMAs every statsWindow results.
const (
	samplePeriod  = 10
	lookAroundPct = 10
	statsWindow   = 25
)

// rateStat is the bookkeeping Minstrel keeps per (destination, rate).
type rateStat struct {
	// ewmaProb is the smoothed delivery probability in [0,1]; -1 until the
	// first observation.
	ewmaProb float64
	// windowAtt/windowSucc accumulate within the current update window.
	windowAtt  uint64
	windowSucc uint64
}

// SampleRate is Bicket's SampleRate: pick the rate with the lowest expected
// per-packet transmission time (airtime divided by estimated delivery
// probability), and spend a fraction of packets probing other rates that
// could plausibly be faster.
type SampleRate struct {
	Mode *phy.Mode

	rng   *rng.Source
	peers frame.Peers[srState]
	// scratch backs the per-decision probe-candidate build, reused across
	// decisions so the probe path stays allocation-free.
	scratch [maxRates]phy.RateIdx
}

type srState struct {
	// ewma is the smoothed delivery probability per rate in [0,1]; -1
	// until the first observation.
	ewma    [maxRates]float64
	counter int
}

// NewSampleRate builds a SampleRate controller.
func NewSampleRate(mode *phy.Mode, src *rng.Source) *SampleRate {
	if mode.NumRates() > maxRates {
		panic("rate: mode exceeds the inlined per-peer stat capacity")
	}
	return &SampleRate{Mode: mode, rng: src.Split("samplerate")}
}

// Name returns the controller name for experiment tables.
func (s *SampleRate) Name() string { return "samplerate" }

// state returns (creating on first contact) the per-destination state; the
// pointer must not be held across calls.
func (s *SampleRate) state(dst frame.MACAddr) *srState {
	st, fresh := s.peers.Get(dst)
	if fresh {
		for i := range st.ewma {
			st.ewma[i] = -1
		}
	}
	return st
}

// prob returns the estimated delivery probability, optimistic (1.0) for
// untried rates so they get sampled.
func (st *srState) prob(i phy.RateIdx) float64 {
	p := st.ewma[i]
	if p < 0 {
		return 1.0
	}
	return p
}

// expectedTxTime returns airtime/prob in nanoseconds (float).
//
//wlan:hotpath
func (s *SampleRate) expectedTxTime(st *srState, i phy.RateIdx, bytes int) float64 {
	p := st.prob(i)
	if p < 0.01 {
		p = 0.01
	}
	return float64(s.Mode.Airtime(i, bytes)) / p
}

// best returns the rate minimizing expected transmission time.
//
//wlan:hotpath
func (s *SampleRate) best(st *srState, bytes int) phy.RateIdx {
	bestIdx := s.Mode.LowestBasic()
	bestT := s.expectedTxTime(st, bestIdx, bytes)
	for i := 0; i < s.Mode.NumRates(); i++ {
		if t := s.expectedTxTime(st, phy.RateIdx(i), bytes); t < bestT {
			bestT = t
			bestIdx = phy.RateIdx(i)
		}
	}
	return bestIdx
}

// SelectRate implements the controller interface.
//
//wlan:hotpath
func (s *SampleRate) SelectRate(dst frame.MACAddr, bytes, attempt int) phy.RateIdx {
	if dst.IsGroup() {
		return s.Mode.LowestBasic()
	}
	st := s.state(dst)
	best := s.best(st, bytes)
	if attempt >= 2 {
		// Deep in the retry chain: fall back to the most robust rate.
		return s.Mode.LowestBasic()
	}
	if attempt > 0 {
		return best
	}
	st.counter++
	if st.counter%samplePeriod == 0 {
		// Probe a random rate whose lossless airtime beats the current
		// best's expected time — the SampleRate "could be faster" rule.
		// The candidate list is built in the controller's reusable scratch.
		bestT := s.expectedTxTime(st, best, bytes)
		candidates := s.scratch[:0]
		for i := 0; i < s.Mode.NumRates(); i++ {
			ri := phy.RateIdx(i)
			if ri == best {
				continue
			}
			if float64(s.Mode.Airtime(ri, bytes)) < bestT {
				candidates = append(candidates, ri)
			}
		}
		if len(candidates) > 0 {
			return candidates[s.rng.Intn(len(candidates))]
		}
	}
	return best
}

// OnTxResult implements the controller interface.
//
//wlan:hotpath
func (s *SampleRate) OnTxResult(dst frame.MACAddr, ri phy.RateIdx, success bool) {
	if dst.IsGroup() {
		return
	}
	ewma := &s.state(dst).ewma[ri]
	// EWMA with alpha 0.1 per observation.
	obs := 0.0
	if success {
		obs = 1.0
	}
	if *ewma < 0 {
		*ewma = obs
	} else {
		*ewma = 0.9*(*ewma) + 0.1*obs
	}
}

// Minstrel approximates the mac80211 minstrel algorithm: per-rate EWMA
// delivery probability updated in windows, rate chosen by estimated
// throughput (prob × bitrate ÷ airtime), ~10% look-around sampling, and a
// retry chain that degrades toward robust rates.
type Minstrel struct {
	Mode *phy.Mode

	rng   *rng.Source
	peers frame.Peers[minstrelState]
}

type minstrelState struct {
	stats      [maxRates]rateStat
	results    int
	best       phy.RateIdx
	secondBest phy.RateIdx
	sampleSeq  int
}

// NewMinstrel builds a Minstrel controller.
func NewMinstrel(mode *phy.Mode, src *rng.Source) *Minstrel {
	if mode.NumRates() > maxRates {
		panic("rate: mode exceeds the inlined per-peer stat capacity")
	}
	return &Minstrel{Mode: mode, rng: src.Split("minstrel")}
}

// Name returns the controller name for experiment tables.
func (m *Minstrel) Name() string { return "minstrel" }

// state returns (creating on first contact) the per-destination state; the
// pointer must not be held across calls.
func (m *Minstrel) state(dst frame.MACAddr) *minstrelState {
	st, fresh := m.peers.Get(dst)
	if fresh {
		for i := range st.stats {
			st.stats[i].ewmaProb = -1
		}
		st.best, st.secondBest = m.Mode.LowestBasic(), m.Mode.LowestBasic()
	}
	return st
}

// throughput estimates goodput for rate i: prob × bitrate. Airtime scaling
// by frame length cancels when comparing rates at equal length, except for
// the per-frame PHY overhead, so we use the real airtime of a 1200-byte
// frame as the normalizer.
func (m *Minstrel) throughput(st *minstrelState, i phy.RateIdx) float64 {
	p := st.stats[i].ewmaProb
	if p < 0 {
		return 0
	}
	// Minstrel rule: probabilities under 10% yield no throughput credit.
	if p < 0.1 {
		return 0
	}
	air := float64(m.Mode.Airtime(i, 1200))
	return p * 8 * 1200 / air
}

// updateStats folds the window counters into the EWMAs and re-ranks rates.
//
//wlan:hotpath
func (m *Minstrel) updateStats(st *minstrelState) {
	for i := range st.stats {
		s := &st.stats[i]
		if s.windowAtt > 0 {
			obs := float64(s.windowSucc) / float64(s.windowAtt)
			if s.ewmaProb < 0 {
				s.ewmaProb = obs
			} else {
				s.ewmaProb = 0.75*s.ewmaProb + 0.25*obs
			}
			s.windowAtt, s.windowSucc = 0, 0
		}
	}
	best, second := m.Mode.LowestBasic(), m.Mode.LowestBasic()
	bestT, secondT := -1.0, -1.0
	for i := 0; i < m.Mode.NumRates(); i++ {
		t := m.throughput(st, phy.RateIdx(i))
		if t > bestT {
			second, secondT = best, bestT
			best, bestT = phy.RateIdx(i), t
		} else if t > secondT {
			second, secondT = phy.RateIdx(i), t
		}
	}
	st.best, st.secondBest = best, second
}

// SelectRate implements the controller interface.
//
//wlan:hotpath
func (m *Minstrel) SelectRate(dst frame.MACAddr, _, attempt int) phy.RateIdx {
	if dst.IsGroup() {
		return m.Mode.LowestBasic()
	}
	st := m.state(dst)
	switch {
	case attempt == 0:
		st.sampleSeq++
		if st.sampleSeq%(100/lookAroundPct) == 0 {
			// Look-around: probe a rate drawn uniformly; a draw of the best
			// is bumped to the next rate up (wrapping to 0 past the top),
			// so that one is sampled twice as often as any other.
			span := m.Mode.NumRates()
			probe := phy.RateIdx(m.rng.Intn(span))
			if probe == st.best {
				probe = (probe + 1) % phy.RateIdx(span)
			}
			return probe
		}
		return st.best
	case attempt == 1:
		return st.best
	case attempt == 2:
		return st.secondBest
	default:
		return m.Mode.LowestBasic()
	}
}

// OnTxResult implements the controller interface.
//
//wlan:hotpath
func (m *Minstrel) OnTxResult(dst frame.MACAddr, ri phy.RateIdx, success bool) {
	if dst.IsGroup() {
		return
	}
	st := m.state(dst)
	s := &st.stats[ri]
	s.windowAtt++
	if success {
		s.windowSucc++
	}
	st.results++
	if st.results%statsWindow == 0 {
		m.updateStats(st)
	}
}
