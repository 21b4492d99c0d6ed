package mac

import (
	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/sim"
)

// The baseline MACs below deliberately omit acknowledgements and
// retransmissions: they exist to reproduce the textbook offered-load versus
// goodput curves (ALOHA's G·e^{-2G}, slotted ALOHA's G·e^{-G}, TDMA's
// min(G, 1)) that the DCF is compared against in experiment F11. Delivery
// is measured at the receiver.

// BaselineStats counts baseline MAC activity.
type BaselineStats struct {
	Queued   uint64
	Tx       uint64
	RxOK     uint64
	RxErrors uint64
}

// Aloha implements pure ALOHA (transmit the moment a frame arrives) and,
// with Slotted set, slotted ALOHA (transmissions aligned to slot
// boundaries).
type Aloha struct {
	k     *sim.Kernel
	radio *medium.Radio
	rate  phy.RateIdx
	// Slotted aligns transmission starts to multiples of SlotDur.
	Slotted bool
	SlotDur sim.Duration

	queue    []*frame.Frame
	receiver Receiver
	Stats    BaselineStats
}

// NewAloha attaches a pure-ALOHA MAC to a radio, transmitting at the given
// rate index.
func NewAloha(k *sim.Kernel, radio *medium.Radio, rate phy.RateIdx) *Aloha {
	a := &Aloha{k: k, radio: radio, rate: rate}
	radio.SetListener(a)
	return a
}

// NewSlottedAloha attaches a slotted-ALOHA MAC with the given slot length.
// Slot length should be one frame airtime for the textbook curve.
func NewSlottedAloha(k *sim.Kernel, radio *medium.Radio, rate phy.RateIdx, slot sim.Duration) *Aloha {
	a := NewAloha(k, radio, rate)
	a.Slotted = true
	a.SlotDur = slot
	return a
}

// SetReceiver installs the upward delivery callback.
func (a *Aloha) SetReceiver(r Receiver) { a.receiver = r }

// Enqueue accepts a frame and transmits it as soon as the radio is free
// (immediately for pure ALOHA; at the next slot boundary when slotted).
func (a *Aloha) Enqueue(f *frame.Frame) bool {
	a.Stats.Queued++
	a.queue = append(a.queue, f)
	a.pump()
	return true
}

func (a *Aloha) pump() {
	if len(a.queue) == 0 || a.radio.Transmitting() {
		return
	}
	if a.Slotted && a.SlotDur > 0 {
		now := a.k.Now()
		next := (int64(now) + int64(a.SlotDur) - 1) / int64(a.SlotDur) * int64(a.SlotDur)
		if wait := sim.Time(next).Sub(now); wait > 0 {
			a.k.Schedule(wait, "aloha-slot:"+a.radio.Name(), a.pump)
			return
		}
	}
	f := a.queue[0]
	a.queue = a.queue[1:]
	a.Stats.Tx++
	a.radio.Transmit(f, a.rate)
}

// OnTxDone implements medium.Listener.
func (a *Aloha) OnTxDone() { a.pump() }

// OnCCABusy implements medium.Listener (ALOHA ignores carrier sense).
func (a *Aloha) OnCCABusy() {}

// OnCCAIdle implements medium.Listener.
func (a *Aloha) OnCCAIdle() {}

// OnRxError implements medium.Listener.
func (a *Aloha) OnRxError(medium.RxInfo) { a.Stats.RxErrors++ }

// OnRxFrame implements medium.Listener.
func (a *Aloha) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	a.Stats.RxOK++
	if a.receiver != nil {
		a.receiver(f, info)
	}
}

// TDMA is an idealized, perfectly synchronized round-robin TDMA MAC: node i
// of n owns slots i, i+n, i+2n, … of fixed duration. No contention, no
// acknowledgements — the collision-free upper baseline.
type TDMA struct {
	k     *sim.Kernel
	radio *medium.Radio
	rate  phy.RateIdx

	slot    int
	nSlots  int
	slotDur sim.Duration

	queue    []*frame.Frame
	receiver Receiver
	Stats    BaselineStats
	started  bool
}

// NewTDMA attaches a TDMA MAC owning slot index slot of nSlots, each
// slotDur long (must cover one frame airtime plus guard).
func NewTDMA(k *sim.Kernel, radio *medium.Radio, rate phy.RateIdx, slot, nSlots int, slotDur sim.Duration) *TDMA {
	t := &TDMA{k: k, radio: radio, rate: rate, slot: slot, nSlots: nSlots, slotDur: slotDur}
	radio.SetListener(t)
	return t
}

// SetReceiver installs the upward delivery callback.
func (t *TDMA) SetReceiver(r Receiver) { t.receiver = r }

// Enqueue accepts a frame for the next owned slot.
func (t *TDMA) Enqueue(f *frame.Frame) bool {
	t.Stats.Queued++
	t.queue = append(t.queue, f)
	t.start()
	return true
}

// start arms the slot timer on first use.
func (t *TDMA) start() {
	if t.started {
		return
	}
	t.started = true
	t.armNext()
}

// armNext schedules a wakeup at the start of our next owned slot.
func (t *TDMA) armNext() {
	now := int64(t.k.Now())
	frameLen := int64(t.slotDur) * int64(t.nSlots)
	base := now / frameLen * frameLen
	mine := base + int64(t.slot)*int64(t.slotDur)
	for mine <= now {
		mine += frameLen
	}
	t.k.ScheduleAt(sim.Time(mine), "tdma-slot:"+t.radio.Name(), t.onSlot)
}

func (t *TDMA) onSlot() {
	if len(t.queue) > 0 && !t.radio.Transmitting() {
		f := t.queue[0]
		t.queue = t.queue[1:]
		t.Stats.Tx++
		t.radio.Transmit(f, t.rate)
	}
	t.armNext()
}

// OnTxDone implements medium.Listener.
func (t *TDMA) OnTxDone() {}

// OnCCABusy implements medium.Listener.
func (t *TDMA) OnCCABusy() {}

// OnCCAIdle implements medium.Listener.
func (t *TDMA) OnCCAIdle() {}

// OnRxError implements medium.Listener.
func (t *TDMA) OnRxError(medium.RxInfo) { t.Stats.RxErrors++ }

// OnRxFrame implements medium.Listener.
func (t *TDMA) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	t.Stats.RxOK++
	if t.receiver != nil {
		t.receiver(f, info)
	}
}

// Interface checks.
var (
	_ medium.Listener = (*Aloha)(nil)
	_ medium.Listener = (*TDMA)(nil)
	_ medium.Listener = (*DCF)(nil)
)
