// Security: the three generations the survey text walks through, made
// executable. A WEP BSS is joined via shared-key authentication, then the
// classic CRC bit-flip forgery is demonstrated against WEP and repelled by
// CCMP (the WPA2 mandatory cipher). This is experiment S1 as a story.
package main

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/frame"
	"repro/internal/geom"
	"repro/internal/net80211"
	"repro/internal/sim"
	"repro/internal/wep"
)

func main() {
	// Part 1: shared-key auth + WEP-sealed data over the air.
	key := wep.Key{0xde, 0xad, 0xbe, 0xef, 0x42}
	net := core.NewNetwork(core.Config{Seed: 8})
	ap := net.AddAP("ap", geom.Pt(0, 0), net80211.APConfig{SSID: "secure", WEPKey: key})
	sta := net.AddStation("sta", geom.Pt(10, 0), net80211.STAConfig{SSID: "secure", WEPKey: key})

	var delivered []byte
	ap.AP.OnDeliver = func(_, _ frame.MACAddr, payload []byte) { delivered = bytes.Clone(payload) }
	net.Kernel().Ticker(100*sim.Millisecond, "send", func() {
		if sta.STA.Associated() && delivered == nil {
			sta.STA.Send(ap.AP.BSSID(), []byte("over-the-air, WEP sealed"))
		}
	})
	net.Run(2 * sim.Second)
	fmt.Println("— part 1: WEP BSS —")
	fmt.Printf("shared-key auths at AP: %d ok, %d failed\n",
		ap.AP.Stats.AuthOK, ap.AP.Stats.AuthFail)
	fmt.Printf("payload decrypted by AP: %q\n\n", delivered)

	// Part 2: the bit-flip forgery. The attacker knows the plaintext
	// layout and wants to change the amount — without the key.
	fmt.Println("— part 2: WEP integrity forgery —")
	plain := []byte("TRANSFER   10 EUR")
	target := []byte("TRANSFER 9910 EUR")
	sealed, _ := wep.Seal(key, wep.IV{1, 2, 3}, 0, plain)
	mask := make([]byte, len(plain))
	for i := range plain {
		mask[i] = plain[i] ^ target[i]
	}
	forged, _ := wep.BitFlip(sealed, mask)
	got, err := wep.Open(key, forged)
	fmt.Printf("original:  %q\n", plain)
	fmt.Printf("forged:    %q  (ICV check: err=%v)\n", got, err)
	fmt.Printf("attack works: %v — CRC-32 is linear under XOR\n\n",
		err == nil && bytes.Equal(got, target))

	// Part 3: CCMP rejects the same manipulation and replays.
	fmt.Println("— part 3: CCMP (WPA2) —")
	tk := []byte("sixteen byte key")
	ta := [6]byte{2, 0, 0, 0, 0, 1}
	ccmp, _ := wep.SealCCMP(tk, ta, 1, nil, plain)
	flipped := append([]byte(nil), ccmp...)
	for i := range mask {
		flipped[wep.CCMPHeaderLen+i] ^= mask[i]
	}
	_, _, err = wep.OpenCCMP(tk, ta, nil, flipped, 0)
	fmt.Printf("bit-flip against CCMP: %v\n", err)
	_, _, err = wep.OpenCCMP(tk, ta, nil, ccmp, 1)
	fmt.Printf("replay against CCMP:   %v\n", err)
	fmt.Println("\nranking reproduced: CCMP (WPA2) > WEP > open — as in the survey's table")
}
