// Package trace provides frame-level event tracing: a pluggable Tracer
// interface with human-readable text, JSON-lines and counting
// implementations. The medium emits one event per transmission and per
// reception outcome, which is enough to reconstruct every exchange.
package trace

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/frame"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Kind classifies trace events.
type Kind string

// Event kinds.
const (
	KindTx    Kind = "tx"     // a radio started transmitting
	KindRxOK  Kind = "rx-ok"  // a radio decoded a frame
	KindRxErr Kind = "rx-err" // a locked frame failed its FCS
	KindMgmt  Kind = "mgmt"   // management-plane state change
	KindRoam  Kind = "roam"   // station switched APs
	KindPS    Kind = "ps"     // power-save transition
)

// Event is one trace record.
type Event struct {
	At   sim.Time
	Node string
	Kind Kind
	// Frame is nil for non-frame events. It is a view into live simulation
	// state (rx events carry the medium's pooled zero-copy decode, tx
	// events the sender's in-flight frame), valid only for the duration of
	// the Trace call: tracers that buffer events must store
	// Frame.Clone() — or, like the built-in tracers, render what they
	// need before returning.
	Frame  *frame.Frame
	Detail string
}

// Tracer consumes events synchronously from the simulation hot path.
type Tracer interface {
	Trace(ev Event)
}

// Nop discards everything.
type Nop struct{}

// Trace implements Tracer.
func (Nop) Trace(Event) {}

// Text writes one human-readable line per event.
type Text struct {
	W io.Writer
}

// Trace implements Tracer.
func (t Text) Trace(ev Event) {
	if t.W == nil {
		return
	}
	if ev.Frame != nil {
		fmt.Fprintf(t.W, "%12s %-10s %-6s %s %s\n", ev.At, ev.Node, ev.Kind, ev.Frame, ev.Detail)
	} else {
		fmt.Fprintf(t.W, "%12s %-10s %-6s %s\n", ev.At, ev.Node, ev.Kind, ev.Detail)
	}
}

// jsonEvent is the serialized form of an Event.
type jsonEvent struct {
	AtNs   int64  `json:"at_ns"`
	Node   string `json:"node"`
	Kind   string `json:"kind"`
	Type   string `json:"type,omitempty"`
	RA     string `json:"ra,omitempty"`
	TA     string `json:"ta,omitempty"`
	Seq    uint16 `json:"seq,omitempty"`
	Len    int    `json:"len,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// JSONL writes one JSON object per line, suitable for offline analysis and
// the wlantrace tool.
type JSONL struct {
	W io.Writer
}

// Trace implements Tracer.
func (j JSONL) Trace(ev Event) {
	if j.W == nil {
		return
	}
	je := jsonEvent{AtNs: int64(ev.At), Node: ev.Node, Kind: string(ev.Kind), Detail: ev.Detail}
	if f := ev.Frame; f != nil {
		je.Type = frame.Name(f.Type, f.Subtype)
		je.RA = f.Addr1.String()
		je.TA = f.Addr2.String()
		je.Seq = f.Seq
		je.Len = f.WireLen()
	}
	b, err := json.Marshal(je)
	if err != nil {
		return
	}
	b = append(b, '\n')
	_, _ = j.W.Write(b)
}

// ParseJSONL decodes one line produced by JSONL (for wlantrace).
func ParseJSONL(line []byte) (map[string]any, error) {
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		return nil, err
	}
	return m, nil
}

// Counter tallies events by kind; useful in tests and quick summaries.
type Counter struct {
	Counts map[Kind]uint64
}

// NewCounter builds an empty counter.
func NewCounter() *Counter { return &Counter{Counts: make(map[Kind]uint64)} }

// Trace implements Tracer.
func (c *Counter) Trace(ev Event) { c.Counts[ev.Kind]++ }

// Kinds lists every event kind in a stable summary order.
var Kinds = []Kind{KindTx, KindRxOK, KindRxErr, KindMgmt, KindRoam, KindPS}

// Counting is a Tracer backed by the obs metrics registry: one
// wlan_trace_events_total{kind="..."} counter per event kind, a single
// atomic add per event and no buffering. It serves two consumers —
// scenarios wanting per-kind totals on the /metrics endpoint, and
// cmd/wlantrace's -summary mode, which tallies a stream through CountKind
// without holding events. Unknown kinds fall into kind="other".
type Counting struct {
	counters map[Kind]*obs.Counter
	other    *obs.Counter
}

// NewCounting registers (idempotently) the per-kind counters on the
// Default obs registry and returns the tracer.
func NewCounting() *Counting {
	c := &Counting{counters: make(map[Kind]*obs.Counter, len(Kinds))}
	for _, k := range Kinds {
		c.counters[k] = obs.Default.Counter("wlan_trace_events_total",
			"Trace events emitted, by event kind.", obs.Label{Key: "kind", Value: string(k)})
	}
	c.other = obs.Default.Counter("wlan_trace_events_total",
		"Trace events emitted, by event kind.", obs.Label{Key: "kind", Value: "other"})
	return c
}

// Trace implements Tracer.
func (c *Counting) Trace(ev Event) { c.CountKind(ev.Kind) }

// CountKind bumps the counter for one kind — the streaming entry point
// for consumers that have a kind string but no Event.
func (c *Counting) CountKind(k Kind) {
	if ctr, ok := c.counters[k]; ok {
		ctr.Inc()
		return
	}
	c.other.Inc()
}

// Count returns the current total for a kind (the "other" bucket for
// unknown kinds).
func (c *Counting) Count(k Kind) uint64 {
	if ctr, ok := c.counters[k]; ok {
		return ctr.Value()
	}
	return c.other.Value()
}
