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
// The receive side keeps one record per transmitter in a frame.Peers
// table, which is all the standard's receiver rule needs: the last accepted
// (Address 2, sequence, fragment) tuple, consulted only when Retry is set,
// beside the MSDU being reassembled.
//
// # Enqueue copies
//
// Enqueue copies the frame it accepts, header and body, into the MAC's own
// recycled job storage: the MAC stamps Seq/Frag/Retry/Duration on its copy,
// retransmits from it, and fragments are views of the job's body. A caller
// may therefore reuse or overwrite its frame and body as soon as Enqueue
// returns, accepted or not.
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
// The receive contract is machine-checked: cmd/wlanlint's retainview
// analyzer flags RX handler code that retains a delivered view without
// Clone. CI runs it on every push.
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
// The PHY mode is the radio's.
type Config struct {
	Address frame.MACAddr

	// QueueCap bounds the transmit queue; default 64 MSDUs.
	QueueCap int
	// RTSThreshold: MPDUs of this size or larger are protected by RTS/CTS.
	// Default 2347 (off).
	RTSThreshold int
	// FragThreshold: MSDUs producing MPDUs larger than this are fragmented.
	// Default 2346 (off).
	FragThreshold int
	// CWmin/CWmax override the mode's values when non-zero (ablations).
	CWmin, CWmax int
	// AIFSN is the arbitration interframe space number: the access IFS is
	// SIFS + AIFSN slots. Default 2 (legacy DIFS). Larger values model
	// lower-priority EDCA access categories.
	AIFSN int
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

// shortRetryLimit bounds the attempts of a frame below the RTS threshold
// and of an RTS itself; longRetryLimit those of a frame at or above it.
const (
	shortRetryLimit = 7
	longRetryLimit  = 4
)

// txJob is one MSDU moving through the transmit pipeline. Jobs are pooled
// by the DCF: gen advances every recycle, so a committed SIFS action that
// captured (job, gen) can tell its job finished even when the pointer was
// reused for a later MSDU.
type txJob struct {
	gen uint64
	// frags are the MSDU's fragments, copied in by makeJob; each one's Body
	// is a view of body, the job's copy of the MSDU's stored bytes. one
	// backs frags for the common unfragmented case, so building a job does
	// not allocate a one-element slice. frags and body keep their capacity
	// across releaseJob.
	frags   []frame.Frame
	one     [1]frame.Frame
	body    []byte
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
func (j *txJob) cur() *frame.Frame { return &j.frags[j.fragIdx] }

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
