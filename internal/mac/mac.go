// Package mac implements the IEEE 802.11 distributed coordination function
// (DCF) — CSMA/CA with binary exponential backoff, NAV virtual carrier
// sense, RTS/CTS, fragmentation, retransmission and duplicate filtering —
// plus the baseline MACs (pure/slotted ALOHA, ideal TDMA) the experiments
// compare against.
//
// The DCF is the mechanism under study: it talks downward to a
// medium.Radio (CCA edges, RX frames, TX completions) and upward to the
// management plane through reassembled MSDU delivery. Rate selection is
// delegated to a RateController so driver-level adaptation policies stay
// separate from MAC mechanism.
//
// # Transmit frame ownership
//
// Enqueue takes ownership of the frame and its body until the MSDU is
// delivered or dropped: the MAC mutates Seq/Frag/Retry/Duration in place,
// retransmits from the same storage, and fragment views alias the body.
// Callers that pool transmit frames (the net80211 send paths) may therefore
// reuse a frame only once the MAC can no longer hold it; the MAC holds at
// most QueueCap()+1 frames at a time (the queue plus the in-flight job), and
// none while Busy() is false, so a ring that wraps at QueueCap()+2 slots,
// advances per accepted Enqueue and restarts at its first slot whenever the
// MAC is not busy is always safe. Callers that retain a frame elsewhere while
// also enqueueing it (e.g. power-save buffers) must hand the MAC a Clone.
//
// # Receive frame ownership
//
// Frames delivered upward through a Receiver are zero-copy views into
// pooled decode buffers shared by the whole medium fan-out; they are valid
// only for the duration of the callback. Any consumer that retains a
// frame, its body, or a slice derived from the body — forwarding queues,
// power-save buffers, reassembly state — must deep-copy what it keeps with
// frame.Frame.Clone. Violations do not crash: they silently read whatever
// the pool decoded next, which is exactly the class of bug the golden
// traces (internal/harness/testdata) exist to catch.
//
// Both contracts are machine-checked: cmd/wlanlint's txownership analyzer
// flags frames reaching Enqueue that are not pool slots or clones (and any
// touch after an accepted hand-off), and its retainview analyzer flags RX
// handler code that retains a delivered view without Clone. CI runs both
// on every push.
package mac

import (
	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/phy"
)

// RateController chooses transmission rates and learns from results. The
// concrete implementations live in the rate package; the interface is
// defined here, where it is consumed.
type RateController interface {
	// SelectRate picks the rate index for a data transmission attempt.
	// attempt counts retransmissions of this MPDU starting at 0.
	SelectRate(dst frame.MACAddr, mpduBytes, attempt int) phy.RateIdx
	// OnTxResult reports the outcome of a data attempt (ACK received or
	// timed out). RTS losses are not reported: they indicate collisions,
	// not channel quality.
	OnTxResult(dst frame.MACAddr, ri phy.RateIdx, success bool)
}

// Receiver consumes reassembled MSDUs and management frames addressed to
// (or overheard by, for group addresses) this station. Frames are zero-copy
// views into pooled buffers, valid only for the duration of the call:
// receivers that retain a frame, its body, or any slice derived from the
// body must deep-copy (frame.Frame.Clone) what they keep.
type Receiver func(f *frame.Frame, info medium.RxInfo)

// Stats aggregates MAC-level counters.
type Stats struct {
	MSDUQueued    uint64 // Enqueue calls accepted
	QueueDrops    uint64 // Admit refusals (full queue), made or settled by Refuse
	DataTx        uint64 // data/mgmt MPDU transmission attempts
	Retries       uint64 // retransmission attempts
	MSDUDelivered uint64 // MSDUs acknowledged (or broadcast sent)
	MSDUDropped   uint64 // MSDUs dropped at retry limit
	RTSTx         uint64
	CTSTx         uint64
	CTSTimeouts   uint64
	ACKTx         uint64
	ACKTimeouts   uint64
	RxData        uint64 // data MPDUs accepted (pre-reassembly)
	RxDup         uint64 // duplicates filtered
	RxDeliver     uint64 // MSDUs delivered upward
	NAVSets       uint64
	EIFSDeferrals uint64
	BackoffSlots  uint64 // total slots drawn
}

// Config parameterises a DCF instance.
type Config struct {
	Address frame.MACAddr
	Mode    *phy.Mode

	// QueueCap bounds the transmit queue; default 64 MSDUs.
	QueueCap int
	// RTSThreshold: MPDUs of this size or larger are protected by RTS/CTS.
	// Default 2347 (off).
	RTSThreshold int
	// FragThreshold: MSDUs producing MPDUs larger than this are fragmented.
	// Default 2346 (off).
	FragThreshold int
	// ShortRetryLimit applies to frames below the RTS threshold and to RTS
	// itself; default 7.
	ShortRetryLimit int
	// LongRetryLimit applies to frames at or above the RTS threshold;
	// default 4.
	LongRetryLimit int
	// CWmin/CWmax override the mode's values when non-zero (ablations).
	CWmin, CWmax int
	// AIFSN is the arbitration interframe space number: the access IFS is
	// SIFS + AIFSN slots. Default 2 (legacy DIFS). Larger values model
	// lower-priority EDCA access categories.
	AIFSN int
	// Promiscuous delivers overheard frames (for monitors/tracers).
	Promiscuous bool
}

func (c *Config) fillDefaults(mode *phy.Mode) {
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	if c.RTSThreshold == 0 {
		c.RTSThreshold = 2347
	}
	if c.FragThreshold == 0 {
		c.FragThreshold = frame.MaxMPDU
	}
	if c.ShortRetryLimit == 0 {
		c.ShortRetryLimit = 7
	}
	if c.LongRetryLimit == 0 {
		c.LongRetryLimit = 4
	}
	if c.CWmin == 0 {
		c.CWmin = mode.CWmin
	}
	if c.CWmax == 0 {
		c.CWmax = mode.CWmax
	}
	if c.AIFSN == 0 {
		c.AIFSN = 2
	}
}

// txJob is one MSDU moving through the transmit pipeline. Jobs are pooled
// by the DCF: gen advances every recycle, so a committed SIFS action that
// captured (job, gen) can tell its job finished even when the pointer was
// reused for a later MSDU.
type txJob struct {
	gen   uint64
	frags []*frame.Frame
	// fragArr backs frags for the common unfragmented case, so building a
	// job does not allocate a one-element slice.
	fragArr [1]*frame.Frame
	fragIdx int
	useRTS  bool
	gotCTS  bool
	// src/lrc are the short/long retry counters for the current fragment.
	src, lrc int
	// attempt counts transmissions of the current fragment (for the rate
	// controller and the Retry bit).
	attempt int
	// rate chosen for the current data attempt.
	rate phy.RateIdx
}

//wlan:hotpath
func (j *txJob) cur() *frame.Frame { return j.frags[j.fragIdx] }

//wlan:hotpath
func (j *txJob) dst() frame.MACAddr { return j.frags[0].Addr1 }

// lastTxKind tags what our radio just finished sending.
type lastTxKind uint8

const (
	txNone lastTxKind = iota
	txRTS
	txData
	txBroadcast
	txCTS
	txACK
)

// respKind is the response we are waiting for.
type respKind uint8

const (
	respNone respKind = iota
	respCTS
	respACK
)
