package net80211

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/wep"
)

// sendState is everything a send could touch on one node, drop counters
// included: the MAC's counters, the body codec's transmit scratch to its
// full capacity, the frames a power-save buffer holds, the radio, the
// codec's WEP IV counter and the node's own counters.
type sendState struct {
	MAC                  mac.Stats
	Scratch, Snap        []byte
	Buffered             []*frame.Frame
	Asleep, Transmitting bool
	IVs                  wep.IVCounter
	Node                 any // STAStats, APStats or the Adhoc payload count
}

func stateOf(d *mac.DCF, c *bodyCodec, node any, buffered []*frame.Frame) sendState {
	s := sendState{MAC: d.Stats(), Node: node, IVs: c.ivs,
		Scratch: bytes.Clone(c.buf[:cap(c.buf)]), Snap: bytes.Clone(c.snap[:cap(c.snap)]),
		Asleep: d.Radio().Asleep(), Transmitting: d.Radio().Transmitting()}
	for _, f := range buffered {
		s.Buffered = append(s.Buffered, f.Clone())
	}
	return s
}

// TestRefusedSendIsPure: a send refused for want of room — in the MAC queue,
// or in an AP's power-save buffer — counts one QueueDrop or PSDropped and
// touches nothing else: no WEP IV consumed, no doze timer re-armed, no
// radio woken, no transmit scratch rewritten or grown, no kernel event
// queued. A PS-Poll answered into a full MAC queue is one QueueDrop too: the
// buffered frame stays at the head of the buffer, not counted delivered.
func TestRefusedSendIsPure(t *testing.T) {
	w := newWorld(31, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	key := wallKey()
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "pure", WEPKey: key, PSBufferCap: 3})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{SSID: "pure", WEPKey: key, PowerSave: true})
	adhoc := NewAdhoc(w.k, w.dcf("adhoc", geom.Pt(0, 30)), IBSSID())
	w.k.RunUntil(sim.Time(2 * sim.Second))
	if !sta.Associated() {
		t.Fatal("station did not associate")
	}
	if e := ap.stations[sta.Address()]; e == nil || !e.ps {
		t.Fatal("AP does not hold the station as dozing")
	}

	// Fill every queue with the kernel paused: nothing drains meanwhile.
	payload := make([]byte, 300)
	payload[0] = 1
	far := frame.MACAddr{0x02, 0, 0, 0, 0, 0x99}
	fill := func(name string, send func() bool) {
		for i := 0; send(); i++ {
			if i > 1000 {
				t.Fatalf("%s: never refused", name)
			}
		}
	}
	fill("adhoc", func() bool { return adhoc.Send(far, payload) })
	fill("station", func() bool { return sta.Send(far, payload) })
	fill("AP PS buffer", func() bool { return ap.queueFromDS(sta.Address(), far, payload) })
	fill("AP queue", func() bool { return ap.Send(frame.Broadcast, payload) })

	adhocState := func() sendState { return stateOf(adhoc.dcf, &adhoc.codec, adhoc.TxPayloads, nil) }
	stationState := func() sendState { return stateOf(sta.dcf, &sta.codec, sta.Stats, nil) }
	apState := func() sendState {
		return stateOf(ap.dcf, &ap.codec, ap.Stats, ap.stations[sta.Address()].psBuf)
	}
	poll := &frame.Frame{Type: frame.TypeControl, Subtype: frame.SubtypePSPoll,
		Addr1: ap.BSSID(), Addr2: sta.Address(), Duration: sta.aid | 0xc000}
	wantAdhoc, wantSTA, wantAP := adhocState(), stationState(), apState()
	pending := w.k.Pending()

	const n = 5
	for i := 0; i < n; i++ {
		for _, c := range []struct {
			name string
			sent bool
		}{
			{"adhoc", adhoc.Send(far, payload)},
			{"station", sta.Send(far, payload)},
			{"AP to a group", ap.Send(frame.Broadcast, payload)},
			{"AP to a dozing station", ap.Send(sta.Address(), payload)},
			{"AP to an unknown station", ap.Send(far, payload)},
			{"DS to a group", ap.queueFromDS(frame.Broadcast, far, payload)},
			{"DS to a dozing station", ap.queueFromDS(sta.Address(), far, payload)},
			{"PS-Poll into a full queue", func() bool {
				before := ap.Stats.PSDelivered
				ap.receive(poll, medium.RxInfo{})
				return ap.Stats.PSDelivered != before
			}()},
		} {
			if c.sent {
				t.Fatalf("%s: send accepted into a full queue", c.name)
			}
		}
	}

	// Only the drop counters moved, by one per refusal.
	wantAdhoc.MAC.QueueDrops += n
	wantSTA.MAC.QueueDrops += n
	wantAP.MAC.QueueDrops += 5 * n // the AP's three local sends, DS to a group and the PS-Poll: the full queue refuses
	apStats := wantAP.Node.(APStats)
	apStats.PSDropped += n
	wantAP.Node = apStats
	for _, c := range []struct {
		name      string
		got, want sendState
	}{
		{"adhoc", adhocState(), wantAdhoc},
		{"station", stationState(), wantSTA},
		{"AP", apState(), wantAP},
	} {
		for _, d := range differing(c.got, c.want) {
			t.Errorf("%s: refused sends moved %.300s", c.name, d)
		}
	}
	if got := w.k.Pending(); got != pending {
		t.Errorf("refused sends queued %d kernel events (a doze timer re-armed?)", got-pending)
	}
}

// differing names the fields of two sendStates that differ.
func differing(a, b sendState) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s: %+v, want %+v", va.Type().Field(i).Name, va.Field(i), vb.Field(i)))
		}
	}
	return out
}
