package mac

import (
	"strings"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/medium"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// Every SIFS commitment follows a decoded reception, and the shortest frame
// outlasts SIFS in every PHY mode (phy's TestShortestFrameOutlastsSIFS), so
// the DCF keeps one commitment slot: a commitment after the last one fired
// is fine, and a second one while the first is pending panics.
func TestSecondSIFSCommitPanics(t *testing.T) {
	b := newBed(1, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	a := b.addNode("a", geom.Pt(0, 0), Config{})
	peer := b.alloc.Next()
	rx := func(seq uint16) {
		f := frame.NewData(a.dcf.Address(), peer, peer, false, false, []byte("x"))
		f.Seq = seq
		a.dcf.OnRxFrame(f, medium.RxInfo{})
	}
	rx(1)
	b.k.Run()
	if got := a.dcf.Stats().ACKTx; got != 1 {
		t.Fatalf("%d ACKs sent for one data frame, want 1", got)
	}
	rx(2)
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "SIFS commitment while another is pending") {
			t.Fatalf("second pending SIFS commitment: recovered %q, want the pending-commitment panic", msg)
		}
	}()
	rx(3)
}
