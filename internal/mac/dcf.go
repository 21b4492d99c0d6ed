package mac

import (
	"math"

	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rng"
	"repro/internal/sim"
)

// DCF is one station's distributed coordination function instance. All
// methods must be called from kernel context.
type DCF struct {
	k     *sim.Kernel
	radio *medium.Radio
	mode  *phy.Mode
	cfg   Config
	rc    RateController
	rng   *rng.Source

	receiver Receiver

	// queue is a FIFO ring: qHead indexes the next MSDU to transmit, and
	// the slice resets to its base whenever it drains, so steady-state
	// enqueue/dequeue reuses one backing array forever. jobFree recycles
	// txJob structs the same way (see releaseJob).
	queue   []*txJob
	qHead   int
	jobFree []*txJob
	cur     *txJob
	// spaceWaiters are the AwaitSpace callbacks owed a call at the next dequeue.
	spaceWaiters []func()

	// Channel state tracking.
	busy         bool     // physical CCA (includes own TX)
	mediumIdleAt sim.Time // start of the current physical idle period
	navUntil     sim.Time
	navTimer     sim.Timer
	useEIFS      bool // last reception errored; next IFS is EIFS

	// Backoff: -1 means no backoff pending.
	backoffSlots int
	cw           int
	accessTimer  sim.Timer

	// Response waiting.
	pending   respKind
	respTimer sim.Timer

	// The committed SIFS action and the event that fires it. Every commit
	// follows a decoded reception, and the shortest frame (a 14 B ACK at
	// the fastest rate) outlasts SIFS in every mode, so no two commitments
	// are ever pending at once: one slot, which embeds the prepared
	// response, keeps the hot path free of closures and control frames.
	sifsEvent  sim.Timer
	sifs       sifsEntry
	sifsFireFn func()
	lastTx     lastTxKind

	// rtsFrame is the reusable RTS scratch: the radio serialises frames at
	// Transmit time, so one header struct per DCF serves every RTS.
	rtsFrame frame.Frame

	// Hot-path event names and callbacks, built once at construction so
	// scheduling a timer never concatenates strings or allocates closures.
	nameNav, nameAccess, nameCTSTimeout, nameACKTimeout, nameSIFS string
	tryAccessFn, ctsTimeoutFn, ackTimeoutFn                       func()

	seq uint16
	rx  rxTable

	stats Stats
}

// New builds a DCF attached to the given radio and installs itself as the
// radio's listener.
func New(k *sim.Kernel, radio *medium.Radio, cfg Config, rc RateController, src *rng.Source) *DCF {
	cfg.fillDefaults(radio.Mode())
	d := &DCF{
		k:            k,
		radio:        radio,
		mode:         radio.Mode(),
		cfg:          cfg,
		rc:           rc,
		rng:          src.Split("dcf:" + radio.Name()),
		backoffSlots: -1,
		cw:           cfg.CWmin,
	}
	name := radio.Name()
	d.nameNav = "nav-expiry:" + name
	d.nameAccess = "access:" + name
	d.nameCTSTimeout = "cts-timeout:" + name
	d.nameACKTimeout = "ack-timeout:" + name
	d.nameSIFS = "sifs:" + name
	d.tryAccessFn = d.tryAccess
	d.ctsTimeoutFn = d.onCTSTimeout
	d.ackTimeoutFn = d.onACKTimeout
	d.sifsFireFn = d.sifsFire
	radio.SetListener(d)
	return d
}

// Address returns the station MAC address.
func (d *DCF) Address() frame.MACAddr { return d.cfg.Address }

// Radio returns the radio this MAC drives.
func (d *DCF) Radio() *medium.Radio { return d.radio }

// Mode returns the PHY mode the MAC operates with.
func (d *DCF) Mode() *phy.Mode { return d.mode }

// Stats returns a snapshot of the MAC counters.
func (d *DCF) Stats() Stats { return d.stats }

// QueueLen returns the number of queued MSDUs (excluding the in-flight one).
func (d *DCF) QueueLen() int { return len(d.queue) - d.qHead }

// QueueCap returns the transmit queue capacity in MSDUs.
func (d *DCF) QueueCap() int { return d.cfg.QueueCap }

// Busy reports whether the MAC holds a frame: one in flight or queued.
func (d *DCF) Busy() bool { return d.cur != nil || d.QueueLen() > 0 }

// Held appends to dst the frames the MAC holds: the first fragment of the
// MSDU in flight and of each queued one (later fragments share its body).
func (d *DCF) Held(dst []*frame.Frame) []*frame.Frame {
	if d.cur != nil {
		dst = append(dst, &d.cur.frags[0])
	}
	for _, j := range d.queue[d.qHead:] {
		dst = append(dst, &j.frags[0])
	}
	return dst
}

// Storage reports the transmit storage the MAC has built: its jobs — in
// flight, queued and recycled — and their bodies' summed capacity.
func (d *DCF) Storage() (jobs, bodyBytes int) {
	count := func(j *txJob) {
		jobs++
		bodyBytes += cap(j.body)
	}
	if d.cur != nil {
		count(d.cur)
	}
	for _, j := range d.queue[d.qHead:] {
		count(j)
	}
	for _, j := range d.jobFree {
		count(j)
	}
	return jobs, bodyBytes
}

// SetReceiver installs the upward delivery callback.
func (d *DCF) SetReceiver(r Receiver) { d.receiver = r }

// Admit reports whether the transmit queue has room for one more MSDU,
// counting a queue drop when it has none — exactly as Enqueue would. Send
// paths call it before they build, seal or wake anything, so a refused send
// touches nothing but QueueDrops. The simulation is single-threaded: nothing
// runs between a send path's Admit and its Enqueue, which is then accepted.
func (d *DCF) Admit() bool {
	if d.QueueLen() >= d.cfg.QueueCap {
		d.stats.QueueDrops++
		return false
	}
	return true
}

// AwaitSpace has fn called once, the next time an MSDU leaves the transmit
// queue, if the queue is full now: a source that found it full waits here
// instead of offering again on a timer (traffic.Backlog). It reports whether
// fn was registered. fn runs inside tryAccess and must not call back into
// the MAC; it is there to schedule an event.
func (d *DCF) AwaitSpace(fn func()) bool {
	if d.QueueLen() < d.cfg.QueueCap {
		return false
	}
	d.spaceWaiters = append(d.spaceWaiters, fn)
	return true
}

// Refuse counts n sends a waiting source did not make: Admit refusals.
func (d *DCF) Refuse(n uint64) { d.stats.QueueDrops += n }

// Enqueue accepts a copy of an MSDU (data or management frame) for
// transmission. The caller sets the address fields; the MAC sets
// Seq/Frag/Retry/Duration on its copy. It returns false when the queue is
// full (Admit). Either way the caller keeps f and its body, free to reuse.
func (d *DCF) Enqueue(f *frame.Frame) bool {
	if !d.Admit() {
		return false
	}
	job := d.makeJob(f)
	d.queue = append(d.queue, job)
	d.stats.MSDUQueued++
	d.tryAccess()
	return true
}

// makeJob assigns the sequence number, copies f into a job and performs
// fragmentation. Jobs are recycled through jobFree; the generation counter
// distinguishes reuses so committed SIFS actions referencing a finished job
// cannot fire against its successor. f itself is only read: storing it
// would make Enqueue's argument escape.
func (d *DCF) makeJob(f *frame.Frame) *txJob {
	seq := d.seq
	d.seq = (d.seq + 1) % frame.MaxSeq

	var job *txJob
	if n := len(d.jobFree); n > 0 {
		job = d.jobFree[n-1]
		d.jobFree = d.jobFree[:n-1]
	} else {
		job = &txJob{}
		job.frags = job.one[:0]
	}
	if cap(job.body) < len(f.Body) {
		// At least 64 B at once: SNAP and a measurement header, so a
		// trimmed body does not regrow as the header gains non-zero bytes.
		job.body = make([]byte, 0, max(len(f.Body), 64))
	}
	job.body = append(job.body[:0], f.Body...)
	frag := *f
	frag.Seq = seq
	mpduLen := f.WireLen()
	group := f.Addr1.IsGroup()
	fragPayload := d.cfg.FragThreshold - frame.DataHdrLen - frame.FCSLen
	if !group && mpduLen > d.cfg.FragThreshold && len(f.Body)+f.Zeros > fragPayload && fragPayload > 0 {
		// A fragment takes its share of the stored bytes first and of the
		// zero run after them.
		body, zeros := job.body, f.Zeros
		for i := 0; len(body)+zeros > 0; i++ {
			n := min(fragPayload, len(body)+zeros)
			stored := min(n, len(body))
			frag.Body, frag.Zeros = body[:stored], n-stored
			frag.Frag = uint8(i)
			frag.MoreFrag = n < len(body)+zeros
			body, zeros = body[stored:], zeros-frag.Zeros
			job.frags = append(job.frags, frag)
		}
	} else {
		frag.Body = job.body
		frag.Frag = 0
		frag.MoreFrag = false
		job.frags = append(job.frags, frag)
	}
	job.useRTS = !group && mpduLen >= d.cfg.RTSThreshold
	return job
}

// --- channel state --------------------------------------------------------

// OnCCABusy implements medium.Listener.
func (d *DCF) OnCCABusy() {
	if d.busy {
		return
	}
	d.busy = true
	// Freeze backoff: account for slots consumed since countdown start.
	d.k.Cancel(d.accessTimer)
	if d.backoffSlots > 0 {
		start := d.countdownStart()
		if now := d.k.Now(); now > start {
			consumed := int(now.Sub(start) / d.mode.Slot)
			if consumed > d.backoffSlots {
				consumed = d.backoffSlots
			}
			d.backoffSlots -= consumed
		}
	}
	// A station whose immediate-access DIFS window is interrupted must fall
	// back to a random backoff.
	if d.cur != nil && d.backoffSlots < 0 && !d.radio.Transmitting() {
		d.drawBackoff()
	}
}

// OnCCAIdle implements medium.Listener.
func (d *DCF) OnCCAIdle() {
	d.busy = false
	d.mediumIdleAt = d.k.Now()
	d.tryAccess()
}

// countdownStart returns the instant the current backoff countdown began:
// idle start plus the applicable IFS.
//
//wlan:hotpath
func (d *DCF) countdownStart() sim.Time {
	idle := d.mediumIdleAt
	if d.navUntil > idle {
		idle = d.navUntil
	}
	return idle.Add(d.ifs())
}

// aifs returns this station's arbitration IFS: SIFS + AIFSN slots (AIFSN=2
// recovers the legacy DIFS).
//
//wlan:hotpath
func (d *DCF) aifs() sim.Duration {
	return d.mode.SIFS + sim.Duration(d.cfg.AIFSN)*d.mode.Slot
}

//wlan:hotpath
func (d *DCF) ifs() sim.Duration {
	extra := d.aifs() - d.mode.DIFS()
	if d.useEIFS {
		return d.mode.EIFS() + extra
	}
	return d.aifs()
}

//wlan:hotpath
func (d *DCF) drawBackoff() {
	d.backoffSlots = d.rng.Intn(d.cw + 1)
	d.stats.BackoffSlots += uint64(d.backoffSlots)
}

func (d *DCF) doubleCW() {
	d.cw = d.cw*2 + 1
	if d.cw > d.cfg.CWmax {
		d.cw = d.cfg.CWmax
	}
}

func (d *DCF) resetCW() { d.cw = d.cfg.CWmin }

// --- channel access -------------------------------------------------------

// tryAccess evaluates whether a transmission can start, now or at a
// scheduled future instant. It is invoked on every event that could unblock
// access: enqueue, CCA idle, NAV expiry, TX completion, timeouts.
func (d *DCF) tryAccess() {
	if d.cur == nil {
		if d.qHead == len(d.queue) {
			return
		}
		d.cur = d.queue[d.qHead]
		d.queue[d.qHead] = nil // drop the ring's reference for the job pool
		d.qHead++
		switch {
		case d.qHead == len(d.queue):
			// Drained: rewind so the backing array is reused forever.
			d.queue = d.queue[:0]
			d.qHead = 0
		case d.qHead >= 64 && d.qHead*2 >= len(d.queue):
			// A saturated queue never fully drains, so the consumed prefix
			// would grow one slot per delivered MSDU; compact in place once
			// it dominates. Amortized O(1) per pop, no allocation.
			n := copy(d.queue, d.queue[d.qHead:])
			for i := n; i < len(d.queue); i++ {
				d.queue[i] = nil
			}
			d.queue = d.queue[:n]
			d.qHead = 0
		}
		for _, fn := range d.spaceWaiters { // a slot is free for whoever comes first
			fn()
		}
		d.spaceWaiters = d.spaceWaiters[:0]
	}
	if d.radio.Transmitting() || d.pending != respNone || d.sifsEvent.Scheduled() {
		return
	}
	now := d.k.Now()
	if d.busy {
		// Will retry on the idle edge; make sure a backoff exists so we do
		// not grab the channel the instant it frees.
		if d.backoffSlots < 0 {
			d.drawBackoff()
		}
		return
	}
	if now < d.navUntil {
		// Virtual carrier sense: wait out the NAV.
		if !d.navTimer.Scheduled() {
			d.navTimer = d.k.ScheduleAt(d.navUntil, d.nameNav, d.tryAccessFn)
		}
		if d.backoffSlots < 0 {
			d.drawBackoff()
		}
		return
	}

	txAt := d.countdownStart()
	if d.backoffSlots > 0 {
		txAt = txAt.Add(sim.Duration(d.backoffSlots) * d.mode.Slot)
	}
	if now >= txAt {
		d.backoffSlots = -1
		d.transmitCurrent()
		return
	}
	d.k.Cancel(d.accessTimer)
	// The timer re-runs the full guard set: state may have changed since it
	// was armed (a response wait, a SIFS commitment, new NAV).
	d.accessTimer = d.k.ScheduleAt(txAt, d.nameAccess, d.tryAccessFn)
}

//wlan:hotpath
func durToUs(dur sim.Duration) uint16 {
	us := math.Ceil(dur.Microseconds())
	if us > 32767 { // Duration field caps at 32767 for NAV values
		us = 32767
	}
	return uint16(us)
}

// transmitCurrent sends the current job's next MPDU (RTS first if armed).
func (d *DCF) transmitCurrent() {
	job := d.cur
	if job == nil || d.radio.Transmitting() {
		return
	}
	mpdu := job.cur()
	job.rate = d.rc.SelectRate(job.dst(), mpdu.WireLen(), job.attempt)

	if job.useRTS && !job.gotCTS {
		d.sendRTS(job)
		return
	}
	d.sendDataMPDU(job)
}

func (d *DCF) sendRTS(job *txJob) {
	ctrlRate := d.mode.ControlRate(job.rate)
	mpdu := job.cur()
	// NAV covers CTS + DATA + ACK and the three SIFS gaps.
	nav := 3*d.mode.SIFS +
		d.mode.Airtime(ctrlRate, frame.CTSLen) +
		d.mode.Airtime(job.rate, mpdu.WireLen()) +
		d.mode.Airtime(d.mode.ControlRate(job.rate), frame.ACKLen)
	d.rtsFrame = frame.Frame{
		Type: frame.TypeControl, Subtype: frame.SubtypeRTS,
		Addr1: job.dst(), Addr2: d.cfg.Address, Duration: durToUs(nav),
	}
	d.lastTx = txRTS
	d.stats.RTSTx++
	d.radio.Transmit(&d.rtsFrame, ctrlRate)
}

func (d *DCF) sendDataMPDU(job *txJob) {
	mpdu := job.cur()
	mpdu.Retry = job.attempt > 0
	group := mpdu.Addr1.IsGroup()
	ackRate := d.mode.ControlRate(job.rate)
	ackTime := d.mode.Airtime(ackRate, frame.ACKLen)
	switch {
	case mpdu.Type == frame.TypeControl && mpdu.Subtype == frame.SubtypePSPoll:
		// A PS-Poll's Duration field carries the AID, never a NAV value.
		d.lastTx = txData // PS-Poll is acknowledged like a data frame
	case group:
		mpdu.Duration = 0
		d.lastTx = txBroadcast
	case mpdu.MoreFrag:
		nav := 3*d.mode.SIFS + 2*ackTime + d.mode.Airtime(job.rate, job.frags[job.fragIdx+1].WireLen())
		mpdu.Duration = durToUs(nav)
		d.lastTx = txData
	default:
		mpdu.Duration = durToUs(d.mode.SIFS + ackTime)
		d.lastTx = txData
	}
	d.stats.DataTx++
	if job.attempt > 0 {
		d.stats.Retries++
	}
	job.attempt++
	d.radio.Transmit(mpdu, job.rate)
}

// --- radio callbacks ------------------------------------------------------

// OnTxDone implements medium.Listener.
func (d *DCF) OnTxDone() {
	// Own transmission no longer occupies the medium; if no external energy
	// is present the CCA idle edge has already updated mediumIdleAt.
	switch d.lastTx {
	case txRTS:
		d.pending = respCTS
		ctrl := d.mode.LowestBasic()
		timeout := d.mode.SIFS + d.mode.Airtime(ctrl, frame.CTSLen) + 2*d.mode.Slot + 10*sim.Microsecond
		d.respTimer = d.k.Schedule(timeout, d.nameCTSTimeout, d.ctsTimeoutFn)
	case txData:
		d.pending = respACK
		ctrl := d.mode.LowestBasic()
		timeout := d.mode.SIFS + d.mode.Airtime(ctrl, frame.ACKLen) + 2*d.mode.Slot + 10*sim.Microsecond
		d.respTimer = d.k.Schedule(timeout, d.nameACKTimeout, d.ackTimeoutFn)
	case txBroadcast:
		d.finishJob(true)
	case txCTS, txACK:
		d.tryAccess()
	}
	d.lastTx = txNone
}

func (d *DCF) onCTSTimeout() {
	if d.pending != respCTS {
		return
	}
	d.pending = respNone
	d.stats.CTSTimeouts++
	job := d.cur
	job.src++
	if job.src > shortRetryLimit {
		d.dropJob()
		return
	}
	d.doubleCW()
	d.drawBackoff()
	d.tryAccess()
}

func (d *DCF) onACKTimeout() {
	if d.pending != respACK {
		return
	}
	d.pending = respNone
	d.stats.ACKTimeouts++
	job := d.cur
	d.rc.OnTxResult(job.dst(), job.rate, false)

	mpdu := job.cur()
	limit := shortRetryLimit
	counter := &job.src
	if mpdu.WireLen() >= d.cfg.RTSThreshold {
		limit = longRetryLimit
		counter = &job.lrc
	}
	*counter++
	if *counter > limit {
		d.dropJob()
		return
	}
	job.gotCTS = false // a protected exchange restarts from RTS
	d.doubleCW()
	d.drawBackoff()
	d.tryAccess()
}

// releaseJob recycles a completed job: every field is reset except the
// storage, emptied, and the generation, which advances so stale SIFS
// commitments (and any other holder of the old (job, gen) pair) can detect
// the reuse.
func (d *DCF) releaseJob(j *txJob) {
	*j = txJob{gen: j.gen + 1, frags: j.frags[:0], body: j.body[:0]}
	d.jobFree = append(d.jobFree, j)
}

// dropJob abandons the current MSDU at its retry limit.
func (d *DCF) dropJob() {
	d.stats.MSDUDropped++
	d.releaseJob(d.cur)
	d.cur = nil
	d.resetCW()
	d.drawBackoff()
	d.tryAccess()
}

// finishJob completes the current fragment (and possibly the MSDU).
func (d *DCF) finishJob(lastFragment bool) {
	job := d.cur
	if job == nil {
		return
	}
	if !lastFragment {
		// Advance to the next fragment; it is sent SIFS after the ACK.
		job.fragIdx++
		job.attempt = 0
		job.src, job.lrc = 0, 0
		e := d.commitSIFS()
		e.action = sifsFrag
		e.job, e.gen = job, job.gen
		return
	}
	d.stats.MSDUDelivered++
	d.releaseJob(d.cur)
	d.cur = nil
	d.resetCW()
	d.drawBackoff()
	d.tryAccess()
}

// sifsAction selects what a committed SIFS entry does when it fires.
type sifsAction uint8

const (
	// sifsRespond transmits the prepared control response in the entry.
	sifsRespond sifsAction = iota
	// sifsData sends the committed job's data MPDU (the post-CTS step).
	sifsData
	// sifsFrag advances the committed job to its next fragment.
	sifsFrag
)

// sifsEntry is the committed SIFS action. It embeds the prepared response
// frame so committing never allocates; for job actions the (job, gen) pair
// guards against the job being recycled before the timer fires.
type sifsEntry struct {
	action sifsAction
	kind   lastTxKind // txCTS or txACK for sifsRespond
	rate   phy.RateIdx
	resp   frame.Frame
	job    *txJob
	gen    uint64
}

// commitSIFS schedules a SIFS commitment one SIFS from now (committed
// responses ignore CCA by design) and returns its emptied slot for the
// caller to fill. A second commitment while one is pending would mean two
// receptions decoded within one SIFS, which no PHY mode allows: it panics.
func (d *DCF) commitSIFS() *sifsEntry {
	if d.sifsEvent.Scheduled() {
		panic("mac: SIFS commitment while another is pending at " + d.nameSIFS)
	}
	d.sifs = sifsEntry{}
	d.sifsEvent = d.k.Schedule(d.mode.SIFS, d.nameSIFS, d.sifsFireFn)
	return &d.sifs
}

// sifsFire executes the committed SIFS action. Its event no longer reads
// as scheduled, so what it sets off may commit again; the radio has copied
// the response by the time Transmit returns.
func (d *DCF) sifsFire() {
	e := &d.sifs
	switch e.action {
	case sifsRespond:
		// The radio may have started transmitting or dozed (power save)
		// since the response was committed; a sleeping radio cannot respond.
		if d.radio.Transmitting() || d.radio.Asleep() {
			return
		}
		d.lastTx = e.kind
		if e.kind == txCTS {
			d.stats.CTSTx++
		} else {
			d.stats.ACKTx++
		}
		d.radio.Transmit(&e.resp, e.rate)
	case sifsData:
		if d.cur == e.job && e.job.gen == e.gen &&
			!d.radio.Transmitting() && !d.radio.Asleep() {
			d.sendDataMPDU(e.job)
		}
	case sifsFrag:
		if d.cur == e.job && e.job.gen == e.gen {
			d.transmitCurrent()
		}
	}
}

// OnRxError implements medium.Listener: an FCS-errored reception imposes
// EIFS on the next access.
func (d *DCF) OnRxError(medium.RxInfo) {
	d.useEIFS = true
	d.stats.EIFSDeferrals++
}

// OnRxFrame implements medium.Listener.
func (d *DCF) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	d.useEIFS = false

	switch {
	case f.Addr1 == d.cfg.Address:
		d.handleAddressed(f, info)
	case f.Addr1.IsGroup():
		if f.Type == frame.TypeData || f.Type == frame.TypeManagement {
			d.deliverUp(f, info)
		}
	default:
		// Overheard: virtual carrier sense. PS-Poll carries an AID in the
		// Duration field, not a NAV value.
		if !(f.Type == frame.TypeControl && f.Subtype == frame.SubtypePSPoll) && f.Duration > 0 && f.Duration <= 32767 {
			until := info.End.Add(sim.Duration(f.Duration) * sim.Microsecond)
			if until > d.navUntil {
				d.navUntil = until
				d.stats.NAVSets++
			}
		}
	}
}

func (d *DCF) handleAddressed(f *frame.Frame, info medium.RxInfo) {
	switch f.Type {
	case frame.TypeControl:
		switch f.Subtype {
		case frame.SubtypeRTS:
			d.handleRTS(f, info)
		case frame.SubtypeCTS:
			d.handleCTS(f, info)
		case frame.SubtypeACK:
			d.handleACK()
		case frame.SubtypePSPoll:
			// Delivered upward; net80211 responds with buffered data.
			d.sendACK(f, info)
			d.deliverUp(f, info)
		}
	case frame.TypeData, frame.TypeManagement:
		d.sendACK(f, info)
		msdu, dup := d.rx.accept(f)
		if dup {
			d.stats.RxDup++
			return
		}
		d.stats.RxData++
		if msdu != nil {
			d.deliverUp(msdu, info)
		}
	}
}

// handleRTS answers with CTS unless our NAV says the medium is reserved.
func (d *DCF) handleRTS(f *frame.Frame, info medium.RxInfo) {
	if d.k.Now() < d.navUntil {
		return
	}
	ctrl := d.mode.ControlRate(info.Rate)
	ctsTime := d.mode.Airtime(ctrl, frame.CTSLen)
	dur := sim.Duration(f.Duration)*sim.Microsecond - d.mode.SIFS - ctsTime
	if dur < 0 {
		dur = 0
	}
	e := d.commitSIFS()
	e.action, e.kind, e.rate = sifsRespond, txCTS, ctrl
	e.resp = frame.Frame{Type: frame.TypeControl, Subtype: frame.SubtypeCTS, Addr1: f.Addr2, Duration: durToUs(dur)}
}

func (d *DCF) handleCTS(f *frame.Frame, info medium.RxInfo) {
	if d.pending != respCTS {
		return
	}
	d.pending = respNone
	d.k.Cancel(d.respTimer)
	job := d.cur
	job.gotCTS = true
	job.src = 0 // successful RTS/CTS resets the short retry counter
	e := d.commitSIFS()
	e.action = sifsData
	e.job, e.gen = job, job.gen
}

func (d *DCF) handleACK() {
	if d.pending != respACK {
		return
	}
	d.pending = respNone
	d.k.Cancel(d.respTimer)
	job := d.cur
	d.rc.OnTxResult(job.dst(), job.rate, true)
	last := job.fragIdx == len(job.frags)-1
	d.finishJob(last)
}

// sendACK schedules the committed SIFS acknowledgement for a received frame.
func (d *DCF) sendACK(f *frame.Frame, info medium.RxInfo) {
	ctrl := d.mode.ControlRate(info.Rate)
	ackTime := d.mode.Airtime(ctrl, frame.ACKLen)
	var dur sim.Duration
	if f.MoreFrag {
		dur = sim.Duration(f.Duration)*sim.Microsecond - d.mode.SIFS - ackTime
		if dur < 0 {
			dur = 0
		}
	}
	e := d.commitSIFS()
	e.action, e.kind, e.rate = sifsRespond, txACK, ctrl
	e.resp = frame.Frame{Type: frame.TypeControl, Subtype: frame.SubtypeACK, Addr1: f.Addr2, Duration: durToUs(dur)}
}

func (d *DCF) deliverUp(f *frame.Frame, info medium.RxInfo) {
	if d.receiver == nil {
		return
	}
	d.stats.RxDeliver++
	d.receiver(f, info)
}
