// Golden-output test for the JSONL tracer: a fixed-seed scenario is traced
// and the full output is compared byte-for-byte against a checked-in
// golden. Any drift — field order, a
// formatting tweak, a renamed kind, an extra event — fails loudly here
// before it breaks downstream log parsers. The package is trace_test so
// the scenario can come from internal/core without an import cycle.
package trace_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/sim"
	"repro/internal/trace"
)

// goldenScenario runs the pinned trace scenario with tr attached: two
// saturated 802.11b ad-hoc stations 20 m apart, seed 42, 25 virtual ms.
// Small enough for a reviewable golden, busy enough to cover tx, rx-ok
// and retry detail strings.
func goldenScenario(tr trace.Tracer) {
	net := core.NewNetwork(core.Config{Seed: 42, Mode: "802.11b", Tracer: tr})
	a := net.AddAdhoc("sta0", geom.Pt(0, 0))
	b := net.AddAdhoc("sta1", geom.Pt(20, 0))
	net.Saturate(a, b, 400)
	net.Saturate(b, a, 400)
	net.Run(25 * sim.Millisecond)
}

func TestTracerGoldens(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Go permits FMA fusion on some architectures, so float-dependent
		// event sequences are only bit-reproducible within one GOARCH. The
		// goldens are generated on amd64 (the CI architecture).
		t.Skip("golden traces are pinned for amd64")
	}
	t.Run("jsonl", func(t *testing.T) {
		var buf bytes.Buffer
		goldenScenario(trace.JSONL{W: &buf})
		if buf.Len() == 0 {
			t.Fatal("scenario emitted no trace output")
		}
		path := filepath.Join("testdata", "golden_jsonl.txt")
		if os.Getenv("REGEN_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s (%d bytes)", path, buf.Len())
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with REGEN_GOLDEN=1 to create): %v", err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("tracer output drifted from %s.\nIf the format change is "+
				"intentional, regenerate with REGEN_GOLDEN=1 and flag it in the "+
				"PR — downstream parsers key on this format.\ngot %d bytes, want %d",
				path, buf.Len(), len(want))
		}
	})
}

// retained is one buffered event: the raw Frame view exactly as Trace saw
// it, a Clone taken inside the call, and the fields rendered at that
// moment for later comparison.
type retained struct {
	raw      *frame.Frame
	clone    *frame.Frame
	rendered string
	body     []byte
}

// retainer is a buffering tracer that (incorrectly) keeps the raw Frame
// view alongside the Clone the contract requires.
type retainer struct {
	events []retained
}

func (r *retainer) Trace(ev trace.Event) {
	if ev.Frame == nil {
		return
	}
	r.events = append(r.events, retained{
		raw:      ev.Frame,
		clone:    ev.Frame.Clone(),
		rendered: ev.Frame.String(),
		body:     append([]byte(nil), ev.Frame.Body...),
	})
}

// TestCloneOnRetain pins the Event.Frame retention contract: the Frame is
// a view into live simulation state (pooled decodes, in-flight frames),
// valid only for the duration of the Trace call, so tracers that buffer
// events must store Frame.Clone(). The test buffers both the raw view and
// the clone for every frame in the golden scenario: every clone must
// still render and carry the bytes it had at trace time, while the raw
// views demonstrably get overwritten as buffers are reused.
func TestCloneOnRetain(t *testing.T) {
	r := &retainer{}
	goldenScenario(r)
	if len(r.events) == 0 {
		t.Fatal("scenario emitted no frame events")
	}

	drifted := 0
	for i, ev := range r.events {
		if got := ev.clone.String(); got != ev.rendered {
			t.Fatalf("event %d: clone drifted after the run:\n at trace: %s\n now:      %s",
				i, ev.rendered, got)
		}
		if !bytes.Equal(ev.clone.Body, ev.body) {
			t.Fatalf("event %d: clone body drifted after the run", i)
		}
		if ev.raw.String() != ev.rendered || !bytes.Equal(ev.raw.Body, ev.body) {
			drifted++
		}
	}
	// The raw views alias pooled storage; with hundreds of saturated
	// exchanges, reuse is certain. If this ever reads zero the zero-copy
	// pooling is gone and the Clone requirement should be re-examined.
	if drifted == 0 {
		t.Errorf("none of %d retained raw Frame views were overwritten — is the decode pool still zero-copy?", len(r.events))
	}
}
