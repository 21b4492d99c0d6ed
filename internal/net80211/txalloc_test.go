package net80211

import (
	"testing"

	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/medium"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/units"
	"repro/internal/wep"
)

// TX-path regression walls: steady-state Send on every node type must be
// allocation-free end to end — SNAP built by AppendSNAP into the node's
// transmit scratch, WEP sealed in place by SealTo, the frame copied into a
// recycled job, job/queue/SIFS state pooled inside the DCF, and the peer's
// receive side (ACK commit, dedup, decrypt scratch) equally clean. Each
// wall drives one Send through the simulator until delivery and asserts
// zero allocations per payload, mirroring the PR 2 rx decode walls.

// foreignKeyID is a key slot no node uses: every node seals under 0.
const foreignKeyID = 2

func wallKey() wep.Key { return wep.Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13} }

// warmThenMeasure runs send enough times to grow every pool (the MAC's
// jobs, each with its own body copy, and the transmit scratch), then
// measures.
func warmThenMeasure(t *testing.T, k *sim.Kernel, send func() bool) {
	t.Helper()
	for i := 0; i < 160; i++ {
		if !send() {
			t.Fatalf("warm-up send %d refused", i)
		}
		k.RunFor(5 * sim.Millisecond)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if !send() {
			t.Fatal("measured send refused")
		}
		k.RunFor(5 * sim.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Send allocates %v/op, want 0", allocs)
	}
}

func TestAdhocSendZeroAlloc(t *testing.T) {
	w := newWorld(21, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	a := NewAdhoc(w.k, w.dcf("a", geom.Pt(0, 0)), IBSSID())
	b := NewAdhoc(w.k, w.dcf("b", geom.Pt(10, 0)), IBSSID())
	payload := make([]byte, 600)
	dst := b.Address()
	warmThenMeasure(t, w.k, func() bool { return a.Send(dst, payload) })
	if b.RxPayloads == 0 {
		t.Fatal("nothing delivered during the wall")
	}
}

// TestAdhocFragmentedSendZeroAlloc: a send above the fragmentation
// threshold is allocation-free too — its fragments are values in the MAC's
// recycled job, views of the job's body copy — and so is the reassembly at
// the peer.
func TestAdhocFragmentedSendZeroAlloc(t *testing.T) {
	w := newWorld(28, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	mode := phy.Mode80211b()
	mk := func(name string, p geom.Point) *mac.DCF {
		r := w.m.AddRadio(medium.RadioConfig{
			Name: name, Mode: mode,
			Mobility: geom.Static{P: p}, TxPower: 16,
		})
		return mac.New(w.k, r, mac.Config{Address: w.alloc.Next(), FragThreshold: 400},
			rate.NewFixed(mode, 3), w.src)
	}
	a := NewAdhoc(w.k, mk("a", geom.Pt(0, 0)), IBSSID())
	b := NewAdhoc(w.k, mk("b", geom.Pt(10, 0)), IBSSID())
	payload := make([]byte, 1000)
	for i := range payload {
		payload[i] = byte(i%251 + 1)
	}
	dst := b.Address()
	warmThenMeasure(t, w.k, func() bool { return a.Send(dst, payload) })
	if got := a.dcf.Stats().DataTx; got < 3*a.TxPayloads {
		t.Fatalf("%d MPDUs for %d payloads: the sends were not fragmented", got, a.TxPayloads)
	}
	if b.RxPayloads == 0 {
		t.Fatal("nothing delivered during the wall")
	}
}

// infraPair associates one station with one AP (optionally WEP) and stops
// the beacons so the measured window contains only the data path. The
// beacon watchdog keeps ticking, so BeaconMissLimit is set high enough
// that the link survives the beaconless measurement.
func infraPair(t *testing.T, seed uint64, key wep.Key) (*world, *AP, *STA) {
	t.Helper()
	w := newWorld(seed, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	ap := NewAP(w.k, w.dcf("ap", geom.Pt(0, 0)), APConfig{SSID: "wall", WEPKey: key})
	sta := NewSTA(w.k, w.dcf("sta", geom.Pt(10, 0)), STAConfig{
		SSID: "wall", WEPKey: key, BeaconMissLimit: 1 << 30,
	})
	w.k.RunUntil(sim.Time(2 * sim.Second))
	if !sta.Associated() {
		t.Fatalf("station never associated (state %v)", sta.state)
	}
	ap.Stop()
	return w, ap, sta
}

func TestSTASendZeroAlloc(t *testing.T) {
	w, ap, sta := infraPair(t, 22, nil)
	payload := make([]byte, 600)
	dst := ap.BSSID()
	warmThenMeasure(t, w.k, func() bool { return sta.Send(dst, payload) })
}

func TestSTASendWEPZeroAlloc(t *testing.T) {
	w, ap, sta := infraPair(t, 23, wallKey())
	payload := make([]byte, 600)
	dst := ap.BSSID()
	warmThenMeasure(t, w.k, func() bool { return sta.Send(dst, payload) })
	if ap.Stats.DecryptErrors != 0 {
		t.Fatalf("AP counted %d decrypt errors on a matched key", ap.Stats.DecryptErrors)
	}
}

func TestAPSendZeroAlloc(t *testing.T) {
	w, ap, sta := infraPair(t, 24, nil)
	payload := make([]byte, 600)
	dst := sta.Address()
	warmThenMeasure(t, w.k, func() bool { return ap.Send(dst, payload) })
	if sta.Stats.RxPayloads == 0 {
		t.Fatal("station received nothing during the wall")
	}
}

func TestAPSendWEPZeroAlloc(t *testing.T) {
	w, ap, sta := infraPair(t, 25, wallKey())
	payload := make([]byte, 600)
	dst := sta.Address()
	warmThenMeasure(t, w.k, func() bool { return ap.Send(dst, payload) })
	if sta.Stats.DecryptErrors != 0 {
		t.Fatalf("station counted %d decrypt errors on a matched key", sta.Stats.DecryptErrors)
	}
	if sta.Stats.RxPayloads == 0 {
		t.Fatal("station decrypted nothing during the wall")
	}
}

// Every node seals and opens under key slot 0, so a frame stamped with
// another slot — a foreign network sharing the key bytes — must be refused:
// counted as a decrypt error, never delivered. The same body under slot 0
// is delivered, so only the key-ID bits decide.
func TestWEPKeyIDMismatchCountsDecryptError(t *testing.T) {
	_, ap, sta := infraPair(t, 26, wallKey())
	delivered := 0
	ap.OnDeliver = func(_, _ frame.MACAddr, _ []byte) { delivered++ }
	send := func(keyID byte) {
		body, err := wep.SealTo(nil, wallKey(), wep.IV{1, 2, 3}, keyID,
			frame.AppendSNAP(nil, EtherTypePayload, []byte("which slot")))
		if err != nil {
			t.Fatal(err)
		}
		ap.receive(&frame.Frame{
			Type: frame.TypeData, Subtype: frame.SubtypeData, ToDS: true, Protected: true,
			Addr1: ap.BSSID(), Addr2: sta.Address(), Addr3: ap.BSSID(), Body: body,
		}, medium.RxInfo{})
	}
	send(foreignKeyID)
	if delivered != 0 || ap.Stats.DecryptErrors != 1 {
		t.Fatalf("key ID %d: %d delivered, %d decrypt errors; want 0 and 1",
			foreignKeyID, delivered, ap.Stats.DecryptErrors)
	}
	send(0)
	if delivered != 1 || ap.Stats.DecryptErrors != 1 {
		t.Fatalf("key ID 0: %d delivered, %d decrypt errors; want 1 and 1", delivered, ap.Stats.DecryptErrors)
	}
}

// Flooding a full queue through Adhoc.Send must not shrink it: a refused
// send holds no queue slot and no transmit job, so after the MAC drains
// the queue accepts a full capacity's worth again, forever, and every
// refusal is one counted drop.
func TestAdhocSendRefillsToCapacity(t *testing.T) {
	w := newWorld(27, spectrum.FreeSpace{Freq: 2412 * units.MHz})
	mode := phy.Mode80211b()
	mk := func(name string, p geom.Point, queueCap int) *mac.DCF {
		r := w.m.AddRadio(medium.RadioConfig{
			Name: name, Mode: mode,
			Mobility: geom.Static{P: p}, TxPower: 16,
		})
		return mac.New(w.k, r, mac.Config{Address: w.alloc.Next(), QueueCap: queueCap},
			rate.NewFixed(mode, 3), w.src)
	}
	const cap = 4
	da := mk("a", geom.Pt(0, 0), cap)
	db := mk("b", geom.Pt(10, 0), 64)
	a := NewAdhoc(w.k, da, IBSSID())
	b := NewAdhoc(w.k, db, IBSSID())
	payload := make([]byte, 200)
	dst := b.Address()

	flood := func() int {
		accepted := 0
		for i := 0; i < 5*cap; i++ {
			if a.Send(dst, payload) {
				accepted++
			}
		}
		return accepted
	}
	// The MAC holds cap queued MSDUs plus the one popped in flight.
	if got := flood(); got != cap+1 {
		t.Fatalf("first flood accepted %d, want %d", got, cap+1)
	}
	for round := 0; round < 3; round++ {
		w.k.RunFor(sim.Second)
		if da.Busy() {
			t.Fatalf("round %d: MAC still busy after a second of draining", round)
		}
		// A slot leaked by a refusal would permanently shrink this number.
		if got := flood(); got != cap+1 {
			t.Fatalf("round %d: flood accepted %d, want %d — a refusal leaked a slot", round, got, cap+1)
		}
	}
	if got, want := da.Stats().QueueDrops, uint64(4*(5*cap-cap-1)); got != want {
		t.Fatalf("QueueDrops = %d, want %d (every refused send counted exactly once)", got, want)
	}
}
