package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/sim"
)

func sampleEvent() Event {
	f := frame.NewData(frame.MACAddr{2, 0, 0, 0, 0, 1}, frame.MACAddr{2, 0, 0, 0, 0, 2},
		frame.MACAddr{2, 0, 0, 0, 0, 3}, true, false, []byte("xyz"))
	f.Seq = 42
	return Event{
		At:     sim.Time(1500 * sim.Microsecond),
		Node:   "sta1",
		Kind:   KindTx,
		Frame:  f,
		Detail: "rate=11 Mbit/s",
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := JSONL{W: &buf}
	tr.Trace(sampleEvent())
	line := strings.TrimSpace(buf.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("parse: %v", err)
	}
	if m["node"] != "sta1" || m["kind"] != "tx" || m["type"] != "data" {
		t.Errorf("fields: %v", m)
	}
	if m["at_ns"].(float64) != 1.5e6 {
		t.Errorf("at_ns = %v", m["at_ns"])
	}
	if m["seq"].(float64) != 42 {
		t.Errorf("seq = %v", m["seq"])
	}
}
