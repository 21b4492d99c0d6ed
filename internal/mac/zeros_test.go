package mac

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/spectrum"
	"repro/internal/units"
)

// TestFragmentsOfZeroTail: an MSDU whose zero fill is a count (frame.Zeros)
// fragments into the same wire images as the same MSDU with the fill
// stored, wherever the fragment boundaries fall against the stored prefix.
func TestFragmentsOfZeroTail(t *testing.T) {
	stored := make([]byte, 300)
	for i := range stored {
		stored[i] = byte(i%251 + 1)
	}
	const zeros = 900
	for _, c := range []struct {
		name        string
		fragPayload int
	}{
		{"boundaries inside the stored prefix", 120},
		{"a boundary on its last byte", 300},
		{"a boundary inside the zero run", 500},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := newBed(3, spectrum.FreeSpace{Freq: 2412 * units.MHz})
			cfg := Config{FragThreshold: c.fragPayload + frame.DataHdrLen + frame.FCSLen}
			trimmedMAC := b.addNode("trimmed", geom.Pt(0, 0), cfg).dcf
			fullMAC := b.addNode("full", geom.Pt(0, 0), cfg).dcf
			dst := frame.MACAddr{2, 0, 0, 0, 0, 9}

			trimmed := data(dst, trimmedMAC.Address(), 0)
			trimmed.Body, trimmed.Zeros = stored, zeros
			full := data(dst, trimmedMAC.Address(), 0)
			full.Body = append(slices.Clone(stored), make([]byte, zeros)...)
			tj, fj := trimmedMAC.makeJob(trimmed), fullMAC.makeJob(full)

			want := (len(stored) + zeros + c.fragPayload - 1) / c.fragPayload
			if len(tj.frags) != want || len(fj.frags) != want {
				t.Fatalf("%d and %d fragments, want %d", len(tj.frags), len(fj.frags), want)
			}
			for i := range tj.frags {
				got, wantWire := tj.frags[i].AppendWire(nil), fj.frags[i].AppendWire(nil)
				if !bytes.Equal(got, wantWire) {
					t.Errorf("fragment %d (%d B stored + %d zeros): wire differs from the materialized MSDU's",
						i, len(tj.frags[i].Body), tj.frags[i].Zeros)
				}
				if tj.frags[i].WireLen() != len(wantWire) {
					t.Errorf("fragment %d: WireLen %d, image %d", i, tj.frags[i].WireLen(), len(wantWire))
				}
			}
		})
	}
}
