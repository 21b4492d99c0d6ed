package net80211

import (
	"fmt"
	"os"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/trace"
	"repro/internal/units"
)

// TestDebugPS is a scaffolding test used while debugging power save; it
// prints a trace when RUN_PS_DEBUG is set.
func TestDebugPS(t *testing.T) {
	if os.Getenv("RUN_PS_DEBUG") == "" {
		t.Skip("debug only")
	}
	w := newWorld(8, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	w.m.Tracer = trace.JSONL{W: os.Stdout}
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "ps"})
	staMAC := w.dcf("sta", geom.Pt(10, 0))
	sta := NewSTA(w.k, staMAC, STAConfig{SSID: "ps", PowerSave: true})

	var got int
	sta.OnReceive = func(_, _ frame.MACAddr, _ []byte) { got++ }
	sent := 0
	w.k.Ticker(300*sim.Millisecond, "downlink", func() {
		if sta.Associated() && sent < 2 {
			if ap.Send(sta.Address(), []byte("wake up")) {
				sent++
				fmt.Printf("=== %v downlink queued (%d)\n", w.k.Now(), sent)
			}
		}
	})
	w.k.RunUntil(sim.Time(1500 * sim.Millisecond))
	fmt.Printf("=== sent=%d got=%d buffered=%d psDelivered=%d polls=%d sleep=%v assoc=%v\n",
		sent, got, ap.Stats.PSBuffered, ap.Stats.PSDelivered, sta.Stats.PSPollsSent,
		staMAC.Radio().Stats.SleepTime, sta.Associated())
}
