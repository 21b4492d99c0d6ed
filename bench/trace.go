package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/medium"
	"repro/internal/sim"
)

// Outside-in tracing. The kernel calls OnEvent before each handler, so the
// interval from one callback to the next is that event's span: the handler
// plus the kernel's pop of the next event. Listener upcalls made by the
// medium are child spans of the medium event that caused them.

// layers are the span classes; an event maps to one by its name prefix.
var layers = [...]string{"medium", "mac", "traffic", "net80211", "ether", "other"}

const (
	layerMedium = iota
	layerMAC
	layerTraffic
	layerNet80211
	layerEther
	layerOther
)

var prefixLayer = map[string]int{
	"rx-start": layerMedium, "rx-end": layerMedium, "tx-done": layerMedium,
	"access": layerMAC, "nav-expiry": layerMAC, "sifs": layerMAC,
	"ack-timeout": layerMAC, "cts-timeout": layerMAC,
	"traffic": layerTraffic, "traffic-sat": layerTraffic,
	"rescan": layerNet80211, "join-wait": layerNet80211, "mgmt-retry": layerNet80211,
	"sta-start": layerNet80211,
	"ether-fwd": layerEther,
}

// net80211Prefixes are the event families named by prefix only.
var net80211Prefixes = [...]string{"beacon", "scan-", "ps-"}

func classify(name string) int {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		name = name[:i]
	}
	if l, ok := prefixLayer[name]; ok {
		return l
	}
	for _, p := range net80211Prefixes {
		if strings.HasPrefix(name, p) {
			return layerNet80211
		}
	}
	return layerOther
}

type acc struct {
	count uint64
	ns    int64
}

// span is one raw record of the ring: parent is the index (in recording
// order) of the event span an upcall ran under, -1 for event spans.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
}

const ringSize = 4096

type tracer struct {
	epoch    time.Time
	byLayer  [len(layers)]acc
	upcalls  acc // listener upcalls under medium events
	runStart time.Time
	wallNs   int64 // traced Run time, the base of attributed_pct
	curLayer int
	curStart time.Time
	curSeq   int64
	open     bool
	ring     [ringSize]span
	seq      int64
	// SINR range (dB) of decoded and errored frames, for the PHY probe.
	sinrMin, sinrMax float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), sinrMin: math.Inf(1), sinrMax: math.Inf(-1)}
}

func (t *tracer) record(name string, start, end time.Time, parent int64) int64 {
	id := t.seq
	t.ring[id%ringSize] = span{id, name, start.Sub(t.epoch).Nanoseconds(), end.Sub(t.epoch).Nanoseconds(), parent}
	t.seq++
	return id
}

// closeSpan ends the open event span at now.
func (t *tracer) closeSpan(now time.Time) {
	if !t.open {
		return
	}
	a := &t.byLayer[t.curLayer]
	a.count++
	a.ns += now.Sub(t.curStart).Nanoseconds()
	t.ring[t.curSeq%ringSize].End = now.Sub(t.epoch).Nanoseconds()
}

func (t *tracer) onEvent(_ sim.Time, name string) {
	now := time.Now()
	t.closeSpan(now)
	t.curLayer, t.curStart, t.open = classify(name), now, true
	t.curSeq = t.record(name, now, now, -1)
}

// begin and end bracket one timed Run; the last event's span ends with it.
func (t *tracer) begin(now time.Time) { t.runStart, t.open = now, false }

func (t *tracer) end(now time.Time) {
	t.closeSpan(now)
	t.open = false
	t.wallNs += now.Sub(t.runStart).Nanoseconds()
}

// attach hooks the kernel and wraps every node's listener.
func (t *tracer) attach(net *core.Network) {
	net.Kernel().OnEvent = t.onEvent
	for _, n := range net.Nodes() {
		n.Radio.SetListener(&spanListener{inner: n.MAC, t: t})
	}
}

func (t *tracer) upcall(name string, start time.Time) {
	now := time.Now()
	// CCA upcalls also fire under mac events (Radio.Transmit marks the
	// sender busy); only those under medium events come off its self time.
	if t.curLayer == layerMedium {
		t.upcalls.count++
		t.upcalls.ns += now.Sub(start).Nanoseconds()
	}
	t.record(name, start, now, t.curSeq)
}

// spanListener times the medium's upcalls into the MAC. The rx frame view
// is passed through, never retained.
type spanListener struct {
	inner medium.Listener
	t     *tracer
}

func (l *spanListener) OnCCABusy() {
	s := time.Now()
	l.inner.OnCCABusy()
	l.t.upcall("mac.cca-busy", s)
}

func (l *spanListener) OnCCAIdle() {
	s := time.Now()
	l.inner.OnCCAIdle()
	l.t.upcall("mac.cca-idle", s)
}

func (l *spanListener) OnRxFrame(f *frame.Frame, info medium.RxInfo) {
	l.t.sawSINR(float64(info.MinSINR))
	s := time.Now()
	l.inner.OnRxFrame(f, info)
	l.t.upcall("mac.rx-frame", s)
}

func (l *spanListener) OnRxError(info medium.RxInfo) {
	l.t.sawSINR(float64(info.MinSINR))
	s := time.Now()
	l.inner.OnRxError(info)
	l.t.upcall("mac.rx-error", s)
}

func (l *spanListener) OnTxDone() {
	s := time.Now()
	l.inner.OnTxDone()
	l.t.upcall("mac.tx-done", s)
}

func (t *tracer) sawSINR(db float64) {
	t.sinrMin = math.Min(t.sinrMin, db)
	t.sinrMax = math.Max(t.sinrMax, db)
}

// report writes the span-derived per-layer metrics. A layer's self time is
// its event spans minus the child spans they cover.
func (t *tracer) report(c map[string]float64) {
	var named int64
	for i, name := range layers {
		a := t.byLayer[i]
		if i != layerOther {
			named += a.ns
			c[name+".ev_events"] = float64(a.count)
			c[name+".ev_s"] = float64(a.ns) / 1e9
		}
	}
	c["mac.rx_callback_s"] = float64(t.upcalls.ns) / 1e9
	c["medium.self_s"] = c["medium.ev_s"] - c["mac.rx_callback_s"]
	c["trace.other_pct"] = 100 * ratio(float64(t.byLayer[layerOther].ns), float64(t.wallNs))
	c["trace.attributed_pct"] = 100 * ratio(float64(named), float64(t.wallNs))
}

// dump writes the ring of the last raw spans; nothing is written during
// the run.
func (t *tracer) dump(workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(outDir, "trace-"+workload+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	first := t.seq - ringSize
	if first < 0 {
		first = 0
	}
	for id := first; id < t.seq; id++ {
		if err := enc.Encode(t.ring[id%ringSize]); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
