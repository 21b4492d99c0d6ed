package wep

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	key40  = Key{1, 2, 3, 4, 5}
	key104 = Key{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	tk     = []byte("0123456789abcdef")
	ta     = [6]byte{2, 0, 0, 0, 0, 1}
)

func TestWEPRoundTrip(t *testing.T) {
	for _, key := range []Key{key40, key104} {
		plain := []byte("attack at dawn, over the wireless")
		sealed, err := Seal(key, IV{9, 8, 7}, 0, plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Open(key, sealed)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, plain) {
			t.Errorf("round trip corrupted: %q", got)
		}
		if len(sealed) != len(plain)+IVHeaderLen+ICVLen {
			t.Errorf("sealed length %d", len(sealed))
		}
	}
}

func TestWEPPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(plain []byte, iv0, iv1, iv2 byte) bool {
		sealed, err := Seal(key104, IV{iv0, iv1, iv2}, 0, plain)
		if err != nil {
			return false
		}
		got, err := Open(key104, sealed)
		return err == nil && bytes.Equal(got, plain)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWEPWrongKeyFails(t *testing.T) {
	sealed, err := Seal(key40, IV{1, 2, 3}, 0, []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Key{5, 4, 3, 2, 1}, sealed); err == nil {
		t.Error("wrong key decrypted successfully")
	}
}

func TestWEPCorruptionDetectedByICV(t *testing.T) {
	sealed, err := Seal(key40, IV{1, 2, 3}, 0, []byte("some payload data"))
	if err != nil {
		t.Fatal(err)
	}
	// Random corruption (not a crafted bit-flip) must fail the ICV.
	bad := append([]byte(nil), sealed...)
	bad[IVHeaderLen+2] ^= 0xff
	if _, err := Open(key40, bad); err != ErrICV {
		t.Errorf("corruption returned %v, want ErrICV", err)
	}
}

func TestWEPKeyValidation(t *testing.T) {
	if _, err := Seal(Key{1, 2, 3}, IV{}, 0, []byte("x")); err == nil {
		t.Error("3-byte key accepted")
	}
	if _, err := Open(Key{1}, make([]byte, 20)); err == nil {
		t.Error("1-byte key accepted")
	}
	if _, err := Open(key40, []byte{1, 2, 3}); err != ErrTooShort {
		t.Error("short body accepted")
	}
}

func TestWEPBitFlipAttackSucceeds(t *testing.T) {
	// The attacker knows the plaintext is "PAY   10 DOLLARS" and wants
	// "PAY 9910 DOLLARS" — without the key.
	plain := []byte("PAY   10 DOLLARS")
	sealed, err := Seal(key104, IV{5, 5, 5}, 0, plain)
	if err != nil {
		t.Fatal(err)
	}
	target := []byte("PAY 9910 DOLLARS")
	mask := make([]byte, len(plain))
	for i := range plain {
		mask[i] = plain[i] ^ target[i]
	}
	forged, err := BitFlip(sealed, mask)
	if err != nil {
		t.Fatal(err)
	}
	// The forged frame passes WEP's integrity check and decrypts to the
	// attacker's text: the classic CRC-linearity failure.
	got, err := Open(key104, forged)
	if err != nil {
		t.Fatalf("forged frame rejected: %v (attack should work!)", err)
	}
	if !bytes.Equal(got, target) {
		t.Errorf("forged plaintext = %q, want %q", got, target)
	}
}

func TestWEPBitFlipProperty(t *testing.T) {
	// Any mask applied to any message yields a valid frame decrypting to
	// plaintext XOR mask.
	if err := quick.Check(func(plain, maskRaw []byte) bool {
		if len(plain) == 0 {
			return true
		}
		mask := maskRaw
		if len(mask) > len(plain) {
			mask = mask[:len(plain)]
		}
		sealed, err := Seal(key40, IV{1, 2, 3}, 0, plain)
		if err != nil {
			return false
		}
		forged, err := BitFlip(sealed, mask)
		if err != nil {
			return false
		}
		got, err := Open(key40, forged)
		if err != nil {
			return false
		}
		want := append([]byte(nil), plain...)
		for i := range mask {
			want[i] ^= mask[i]
		}
		return bytes.Equal(got, want)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIVCounterWraps(t *testing.T) {
	c := IVCounter{n: 0x00fffffe}
	c.Next() // fffffe
	iv := c.Next()
	if iv != (IV{0xff, 0xff, 0xff}) {
		t.Errorf("iv = %v", iv)
	}
	if next := c.Next(); next != (IV{0, 0, 0}) {
		t.Errorf("wrap = %v", next)
	}
}

func TestCCMPRoundTrip(t *testing.T) {
	aad := []byte("addr1addr2addr3")
	plain := []byte("confidential payload with some length to cross blocks")
	pn := PN(1)
	sealed, err := SealCCMP(tk, ta, pn, aad, plain)
	if err != nil {
		t.Fatal(err)
	}
	got, gotPN, err := OpenCCMP(tk, ta, aad, sealed, 0)
	if err != nil {
		t.Fatalf("OpenCCMP: %v", err)
	}
	if gotPN != pn {
		t.Errorf("pn = %d, want %d", gotPN, pn)
	}
	if !bytes.Equal(got, plain) {
		t.Errorf("plaintext corrupted")
	}
	if len(sealed) != len(plain)+CCMPHeaderLen+CCMPMICLen {
		t.Errorf("sealed length %d", len(sealed))
	}
}

func TestCCMPPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(plain, aad []byte, pnRaw uint32) bool {
		pn := PN(pnRaw) + 1
		sealed, err := SealCCMP(tk, ta, pn, aad, plain)
		if err != nil {
			return false
		}
		got, gotPN, err := OpenCCMP(tk, ta, aad, sealed, 0)
		return err == nil && gotPN == pn && bytes.Equal(got, plain)
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCCMPRejectsBitFlip(t *testing.T) {
	// The attack that defeats WEP must fail against CCMP.
	plain := []byte("PAY   10 DOLLARS")
	sealed, err := SealCCMP(tk, ta, 1, nil, plain)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), sealed...)
	forged[CCMPHeaderLen] ^= 'P' ^ 'X' // flip a plaintext bit through CTR
	if _, _, err := OpenCCMP(tk, ta, nil, forged, 0); err != ErrCCMPMIC {
		t.Errorf("bit-flipped CCMP frame returned %v, want MIC error", err)
	}
}

func TestCCMPReplayProtection(t *testing.T) {
	sealed, err := SealCCMP(tk, ta, 5, nil, []byte("once"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCCMP(tk, ta, nil, sealed, 5); err != ErrCCMPReplay {
		t.Errorf("replay returned %v", err)
	}
	if _, _, err := OpenCCMP(tk, ta, nil, sealed, 9); err != ErrCCMPReplay {
		t.Errorf("stale PN returned %v", err)
	}
	if _, _, err := OpenCCMP(tk, ta, nil, sealed, 4); err != nil {
		t.Errorf("fresh PN rejected: %v", err)
	}
}

func TestCCMPAADBinding(t *testing.T) {
	// Changing the associated data (frame addresses) invalidates the MIC.
	sealed, err := SealCCMP(tk, ta, 1, []byte("header-A"), []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenCCMP(tk, ta, []byte("header-B"), sealed, 0); err != ErrCCMPMIC {
		t.Errorf("AAD substitution returned %v, want MIC error", err)
	}
}

func TestCCMPWrongKeyAndTA(t *testing.T) {
	sealed, _ := SealCCMP(tk, ta, 1, nil, []byte("body"))
	otherKey := []byte("fedcba9876543210")
	if _, _, err := OpenCCMP(otherKey, ta, nil, sealed, 0); err != ErrCCMPMIC {
		t.Errorf("wrong key returned %v", err)
	}
	otherTA := [6]byte{9, 9, 9, 9, 9, 9}
	if _, _, err := OpenCCMP(tk, otherTA, nil, sealed, 0); err != ErrCCMPMIC {
		t.Errorf("wrong TA returned %v", err)
	}
	if _, err := SealCCMP([]byte("short"), ta, 1, nil, nil); err == nil {
		t.Error("short temporal key accepted")
	}
}

func BenchmarkWEPSeal1500(b *testing.B) {
	plain := make([]byte, 1500)
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key104, IV{1, 2, 3}, 0, plain); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCCMPSeal1500(b *testing.B) {
	plain := make([]byte, 1500)
	for i := 0; i < b.N; i++ {
		if _, err := SealCCMP(tk, ta, PN(i+1), nil, plain); err != nil {
			b.Fatal(err)
		}
	}
}
