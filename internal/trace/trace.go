// Package trace provides frame-level event tracing: a pluggable Tracer
// interface and its JSON-lines implementation. The medium emits one event
// per transmission and per reception outcome, which is enough to
// reconstruct every exchange.
package trace

import (
	"encoding/json"
	"io"

	"repro/internal/frame"
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
	// Frame.Clone() — or, like JSONL, render what they need before
	// returning.
	Frame  *frame.Frame
	Detail string
}

// Tracer consumes events synchronously from the simulation hot path.
type Tracer interface {
	Trace(ev Event)
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
// the wlantrace tool. Trace has no error to return, so W must keep its own:
// a bufio.Writer holds its first write error, and its Flush reports it.
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

// Kinds lists every event kind in a stable summary order.
var Kinds = []Kind{KindTx, KindRxOK, KindRxErr, KindMgmt, KindRoam, KindPS}
