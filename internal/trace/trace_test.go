package trace

import (
	"bytes"
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

func TestTextTracer(t *testing.T) {
	var buf bytes.Buffer
	tr := Text{W: &buf}
	tr.Trace(sampleEvent())
	out := buf.String()
	for _, want := range []string{"sta1", "tx", "data", "seq=42", "rate=11"} {
		if !strings.Contains(out, want) {
			t.Errorf("text trace missing %q: %s", want, out)
		}
	}
	// Frameless events work too.
	buf.Reset()
	tr.Trace(Event{At: 0, Node: "ap", Kind: KindRoam, Detail: "a->b"})
	if !strings.Contains(buf.String(), "roam") {
		t.Errorf("frameless event: %s", buf.String())
	}
	// Nil writer must not panic.
	Text{}.Trace(sampleEvent())
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := JSONL{W: &buf}
	tr.Trace(sampleEvent())
	line := strings.TrimSpace(buf.String())
	m, err := ParseJSONL([]byte(line))
	if err != nil {
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
	if _, err := ParseJSONL([]byte("{broken")); err == nil {
		t.Error("broken JSON accepted")
	}
}

func TestCounter(t *testing.T) {
	c := NewCounter()
	c.Trace(sampleEvent())
	c.Trace(Event{Kind: KindRxOK})
	c.Trace(Event{Kind: KindRxOK})
	if c.Counts[KindTx] != 1 || c.Counts[KindRxOK] != 2 {
		t.Errorf("counts: %v", c.Counts)
	}
	Nop{}.Trace(sampleEvent()) // must not panic
}
