package wep

import (
	"crypto/aes"
	"encoding/binary"
	"errors"
	"fmt"
)

// CCMP implements a CCMP-style AES-CCM envelope: CTR-mode encryption with a
// CBC-MAC integrity tag over the plaintext and associated data (the frame
// addresses), keyed by a 128-bit temporal key and sequenced by a 48-bit
// packet number (PN). Unlike WEP's CRC ICV, the MIC is keyed — the BitFlip
// attack that defeats WEP fails here, which test S1 demonstrates.
//
// The CCM composition below follows RFC 3610 with the 802.11i parameters
// (M=8 tag bytes, L=2 length bytes, 13-byte nonce).

// CCMP overhead constants.
const (
	CCMPHeaderLen = 8 // PN(6 across the header) + key ID
	CCMPMICLen    = 8
)

// PN is the 48-bit CCMP packet number; replay protection requires it to be
// strictly increasing.
type PN uint64

// ccmNonce builds the 13-byte CCM nonce from the transmitter address and PN.
//
//wlan:hotpath
func ccmNonce(ta [6]byte, pn PN) [13]byte {
	var n [13]byte
	n[0] = 0 // flags/priority
	copy(n[1:7], ta[:])
	n[7] = byte(pn >> 40)
	n[8] = byte(pn >> 32)
	n[9] = byte(pn >> 24)
	n[10] = byte(pn >> 16)
	n[11] = byte(pn >> 8)
	n[12] = byte(pn)
	return n
}

// cbcMAC computes the CCM authentication tag.
func cbcMAC(block interface{ Encrypt(dst, src []byte) }, nonce [13]byte, aad, plaintext []byte) [CCMPMICLen]byte {
	// B0: flags | nonce | message length.
	var b0 [16]byte
	const m = CCMPMICLen
	flags := byte(0)
	if len(aad) > 0 {
		flags |= 0x40
	}
	flags |= byte((m-2)/2) << 3
	flags |= 1 // L-1 with L=2
	b0[0] = flags
	copy(b0[1:14], nonce[:])
	binary.BigEndian.PutUint16(b0[14:16], uint16(len(plaintext)))

	var x [16]byte
	block.Encrypt(x[:], b0[:])

	xorBlock := func(chunk []byte) {
		var b [16]byte
		copy(b[:], chunk)
		for i := range x {
			x[i] ^= b[i]
		}
		block.Encrypt(x[:], x[:])
	}

	// AAD with its 2-byte length prefix, zero-padded to block size.
	if len(aad) > 0 {
		hdr := make([]byte, 2+len(aad))
		binary.BigEndian.PutUint16(hdr, uint16(len(aad)))
		copy(hdr[2:], aad)
		for off := 0; off < len(hdr); off += 16 {
			end := off + 16
			if end > len(hdr) {
				end = len(hdr)
			}
			xorBlock(hdr[off:end])
		}
	}
	for off := 0; off < len(plaintext); off += 16 {
		end := off + 16
		if end > len(plaintext) {
			end = len(plaintext)
		}
		xorBlock(plaintext[off:end])
	}
	var tag [CCMPMICLen]byte
	copy(tag[:], x[:CCMPMICLen])
	return tag
}

// ctrBlock builds the A_i counter block.
//
//wlan:hotpath
func ctrBlock(nonce [13]byte, i uint16) [16]byte {
	var a [16]byte
	a[0] = 1 // flags: L-1 with L=2
	copy(a[1:14], nonce[:])
	binary.BigEndian.PutUint16(a[14:16], i)
	return a
}

// SealCCMPTo encrypts and authenticates a body with AES-CCM, appending the
// sealed envelope onto dst and returning the extended slice. aad binds the
// immutable frame header fields (typically the three addresses). The CTR
// encryption writes straight into dst, so a caller that reuses dst across
// frames pays only the AES key schedule per seal. dst must not alias
// plaintext or aad.
func SealCCMPTo(dst, tk []byte, ta [6]byte, pn PN, aad, plaintext []byte) ([]byte, error) {
	if len(tk) != 16 {
		return nil, fmt.Errorf("wep: CCMP temporal key must be 16 bytes, got %d", len(tk))
	}
	block, err := aes.NewCipher(tk)
	if err != nil {
		return nil, err
	}
	nonce := ccmNonce(ta, pn)
	tag := cbcMAC(block, nonce, aad, plaintext)

	// CCMP header: PN0 PN1 rsvd keyid PN2 PN3 PN4 PN5.
	dst = append(dst,
		byte(pn), byte(pn>>8), 0, 0x20, // key ID 0, ExtIV set
		byte(pn>>16), byte(pn>>24), byte(pn>>32), byte(pn>>40))

	// CTR encryption in place: S_0 masks the tag, S_1.. mask the payload.
	ctStart := len(dst)
	dst = append(dst, plaintext...)
	ct := dst[ctStart:]
	var ks [16]byte
	for off, ctr := 0, uint16(1); off < len(ct); off, ctr = off+16, ctr+1 {
		a := ctrBlock(nonce, ctr)
		block.Encrypt(ks[:], a[:])
		end := off + 16
		if end > len(ct) {
			end = len(ct)
		}
		for i := off; i < end; i++ {
			ct[i] ^= ks[i-off]
		}
	}

	a0 := ctrBlock(nonce, 0)
	block.Encrypt(ks[:], a0[:])
	for i := 0; i < CCMPMICLen; i++ {
		dst = append(dst, tag[i]^ks[i])
	}
	return dst, nil
}

// SealCCMP encrypts and authenticates a body with AES-CCM. aad binds the
// immutable frame header fields (typically the three addresses).
func SealCCMP(tk []byte, ta [6]byte, pn PN, aad, plaintext []byte) ([]byte, error) {
	return SealCCMPTo(make([]byte, 0, CCMPHeaderLen+len(plaintext)+CCMPMICLen), tk, ta, pn, aad, plaintext)
}

// CCMP errors.
var (
	ErrCCMPShort  = errors.New("wep: CCMP body too short")
	ErrCCMPMIC    = errors.New("wep: CCMP MIC mismatch")
	ErrCCMPReplay = errors.New("wep: CCMP replayed packet number")
)

// ParsePN extracts the packet number from a sealed CCMP body.
func ParsePN(body []byte) (PN, error) {
	if len(body) < CCMPHeaderLen {
		return 0, ErrCCMPShort
	}
	return PN(body[0]) | PN(body[1])<<8 | PN(body[4])<<16 |
		PN(body[5])<<24 | PN(body[6])<<32 | PN(body[7])<<40, nil
}

// OpenCCMP verifies and decrypts a CCMP body. lastPN enforces replay
// protection: pass the highest PN accepted so far (0 initially).
func OpenCCMP(tk []byte, ta [6]byte, aad, body []byte, lastPN PN) (plaintext []byte, pn PN, err error) {
	if len(tk) != 16 {
		return nil, 0, fmt.Errorf("wep: CCMP temporal key must be 16 bytes, got %d", len(tk))
	}
	if len(body) < CCMPHeaderLen+CCMPMICLen {
		return nil, 0, ErrCCMPShort
	}
	pn, _ = ParsePN(body)
	if pn <= lastPN {
		return nil, 0, ErrCCMPReplay
	}
	block, err := aes.NewCipher(tk)
	if err != nil {
		return nil, 0, err
	}
	nonce := ccmNonce(ta, pn)

	ct := body[CCMPHeaderLen : len(body)-CCMPMICLen]
	plain := make([]byte, len(ct))
	var ks [16]byte
	for off, ctr := 0, uint16(1); off < len(ct); off, ctr = off+16, ctr+1 {
		a := ctrBlock(nonce, ctr)
		block.Encrypt(ks[:], a[:])
		end := off + 16
		if end > len(ct) {
			end = len(ct)
		}
		for i := off; i < end; i++ {
			plain[i] = ct[i] ^ ks[i-off]
		}
	}

	wantTag := cbcMAC(block, nonce, aad, plain)
	a0 := ctrBlock(nonce, 0)
	block.Encrypt(ks[:], a0[:])
	got := body[len(body)-CCMPMICLen:]
	var diff byte
	for i := 0; i < CCMPMICLen; i++ {
		diff |= got[i] ^ (wantTag[i] ^ ks[i])
	}
	if diff != 0 {
		return nil, 0, ErrCCMPMIC
	}
	return plain, pn, nil
}
