package frame

import (
	"encoding/binary"
	"errors"
)

// Information element IDs used by the management plane.
const (
	IESSID           = 0
	IESupportedRates = 1
	IEDSParam        = 3
	IETIM            = 5
)

// AppendIE appends one type-length-value information element to dst and
// returns the extended slice. It is the building block the management-body
// encoders (AppendBeacon, AppendAuth, AppendAssoc*) are made of.
//
//wlan:hotpath
func AppendIE(dst []byte, id uint8, data []byte) []byte {
	dst = append(dst, id, byte(len(data)))
	return append(dst, data...)
}

// ForEachIE walks the information elements of b in order without copying:
// the data slice passed to fn aliases b. It stops early when fn returns
// false, and reports ErrShortFrame on a truncated element. Every
// management-body decoder in this package is one such walk.
//
//wlan:hotpath
func ForEachIE(b []byte, fn func(id uint8, data []byte) bool) error {
	for len(b) > 0 {
		if len(b) < 2 {
			return ErrShortFrame
		}
		id, l := b[0], int(b[1])
		if len(b) < 2+l {
			return ErrShortFrame
		}
		if !fn(id, b[2:2+l]) {
			return nil
		}
		b = b[2+l:]
	}
	return nil
}

// ieSlot is where firstIEs puts the first element with the given ID.
type ieSlot struct {
	id  uint8
	dst *[]byte
}

// firstIEs is the one rule every management-body decoder applies to its
// element list: it must walk cleanly to its end or the body is rejected, of
// a repeated element the first occurrence counts, unknown elements are
// skipped. A slot's dst becomes a view of b, nil when absent.
func firstIEs(b []byte, slots ...ieSlot) error {
	return ForEachIE(b, func(id uint8, data []byte) bool {
		for _, s := range slots {
			if s.id == id && *s.dst == nil {
				*s.dst = data
			}
		}
		return true
	})
}

// Capability bits advertised in beacons and (re)association frames.
const (
	CapESS     = 1 << 0
	CapIBSS    = 1 << 1
	CapPrivacy = 1 << 4
)

// Beacon is the body of a beacon or probe-response frame as AppendBeacon
// encodes it; receivers decode one with ParseBeacon.
type Beacon struct {
	Timestamp  uint64 // TSF in microseconds
	IntervalTU uint16 // beacon interval in time units (1024 µs)
	Capability uint16
	SSID       string
	Rates      []byte // supported rates in 500 kbit/s units
	Channel    uint8
	TIM        *TIM // nil when absent
}

// TIM is the traffic indication map element announcing buffered frames for
// power-saving stations.
type TIM struct {
	DTIMCount  uint8
	DTIMPeriod uint8
	// Multicast indicates buffered group traffic (bitmap control bit 0).
	Multicast bool
	// AIDs lists association IDs with buffered unicast traffic. We encode
	// the virtual bitmap exactly; parsing recovers this list.
	AIDs []uint16
}

// appendBody appends the TIM element body (count, period, bitmap control,
// partial virtual bitmap) to dst without intermediate buffers.
func (t *TIM) appendBody(dst []byte) []byte {
	maxAID := uint16(0)
	for _, a := range t.AIDs {
		if a > maxAID {
			maxAID = a
		}
	}
	nBytes := int(maxAID)/8 + 1
	ctl := byte(0)
	if t.Multicast {
		ctl |= 0x01
	}
	dst = append(dst, t.DTIMCount, t.DTIMPeriod, ctl)
	start := len(dst)
	for i := 0; i < nBytes; i++ {
		dst = append(dst, 0)
	}
	for _, a := range t.AIDs {
		dst[start+int(a)/8] |= 1 << (a % 8)
	}
	return dst
}

// ParseTIMInto decodes a TIM element body (BeaconView.TIM) into t, reusing
// t.AIDs' backing storage: receivers keep a TIM scratch, so the station's
// beacon hot path allocates nothing.
func ParseTIMInto(t *TIM, b []byte) error {
	if len(b) < 4 {
		return errors.New("frame: TIM too short")
	}
	t.DTIMCount = b[0]
	t.DTIMPeriod = b[1]
	t.Multicast = b[2]&0x01 != 0
	t.AIDs = t.AIDs[:0]
	for i, by := range b[3:] {
		for bit := 0; bit < 8; bit++ {
			if by&(1<<bit) != 0 {
				t.AIDs = append(t.AIDs, uint16(i*8+bit))
			}
		}
	}
	return nil
}

// HasAID reports whether the TIM announces buffered traffic for aid.
func (t *TIM) HasAID(aid uint16) bool {
	if t == nil {
		return false
	}
	for _, a := range t.AIDs {
		if a == aid {
			return true
		}
	}
	return false
}

// beaconFixedLen is the fixed part of a beacon/probe-response body:
// timestamp (8), beacon interval (2), capability (2); elements follow.
const beaconFixedLen = 12

// AppendBeacon appends a beacon/probe-response body to dst and returns the
// extended slice with zero intermediate allocations — into a buffer with
// capacity (the AP's pooled TX body) the whole beacon is encoded without
// touching the heap, which is what keeps an idle BSS allocation-free.
func AppendBeacon(dst []byte, b *Beacon) []byte {
	var hdr [beaconFixedLen]byte
	binary.LittleEndian.PutUint64(hdr[0:8], b.Timestamp)
	binary.LittleEndian.PutUint16(hdr[8:10], b.IntervalTU)
	binary.LittleEndian.PutUint16(hdr[10:12], b.Capability)
	dst = append(dst, hdr[:]...)
	dst = append(dst, IESSID, byte(len(b.SSID)))
	dst = append(dst, b.SSID...)
	dst = AppendIE(dst, IESupportedRates, b.Rates)
	dst = append(dst, IEDSParam, 1, b.Channel)
	if b.TIM != nil {
		dst = append(dst, IETIM, 0)
		start := len(dst)
		dst = b.TIM.appendBody(dst)
		dst[start-1] = byte(len(dst) - start) // appendBody sizes the bitmap
	}
	return dst
}

// BeaconView is a decoded beacon/probe-response body. Its slices alias the
// body (copy what outlives it); nil means the element was absent.
type BeaconView struct {
	Timestamp  uint64 // TSF in microseconds
	IntervalTU uint16
	Capability uint16
	SSID       []byte
	Rates      []byte
	Channel    uint8  // 0 when the DS parameter element is absent or not one byte
	TIM        []byte // TIM element body, decoded on demand by ParseTIMInto
}

// ParseBeacon decodes a beacon/probe-response body as a view, without
// allocating; it is the only reader of the layout AppendBeacon writes. A
// body is used whole or not at all: a short fixed header or an element
// list firstIEs rejects is an error, and the result is not to be used.
func ParseBeacon(body []byte) (BeaconView, error) {
	if len(body) < beaconFixedLen {
		return BeaconView{}, ErrShortFrame
	}
	v := BeaconView{
		Timestamp:  binary.LittleEndian.Uint64(body[0:8]),
		IntervalTU: binary.LittleEndian.Uint16(body[8:10]),
		Capability: binary.LittleEndian.Uint16(body[10:12]),
	}
	var ds []byte
	err := firstIEs(body[beaconFixedLen:], ieSlot{IESSID, &v.SSID}, ieSlot{IESupportedRates, &v.Rates},
		ieSlot{IEDSParam, &ds}, ieSlot{IETIM, &v.TIM})
	if len(ds) == 1 {
		v.Channel = ds[0]
	}
	return v, err
}

// Authentication algorithm numbers.
const (
	AuthAlgoOpen      = 0
	AuthAlgoSharedKey = 1
)

// Status codes (subset).
const (
	StatusSuccess        = 0
	StatusUnspecified    = 1
	StatusAuthAlgoUnsupp = 13
	StatusChallengeFail  = 15
	StatusAssocDenied    = 17
	StatusRatesUnsupp    = 18
)

// Auth is the body of an authentication frame; from ParseAuth, Challenge
// aliases the parsed body.
type Auth struct {
	Algorithm uint16
	SeqNum    uint16
	Status    uint16
	Challenge []byte // present in shared-key sequence 2 and 3
}

// IEChallenge is the shared-key challenge text element.
const IEChallenge = 16

// AppendAuth appends an authentication frame body to dst with zero
// intermediate allocations — the path the pooled TX bodies of the
// management plane encode through.
func AppendAuth(dst []byte, a *Auth) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], a.Algorithm)
	binary.LittleEndian.PutUint16(hdr[2:4], a.SeqNum)
	binary.LittleEndian.PutUint16(hdr[4:6], a.Status)
	dst = append(dst, hdr[:]...)
	if len(a.Challenge) > 0 {
		dst = AppendIE(dst, IEChallenge, a.Challenge)
	}
	return dst
}

// ParseAuth decodes an authentication frame body as a view, under
// ParseBeacon's rule.
func ParseAuth(body []byte) (Auth, error) {
	if len(body) < 6 {
		return Auth{}, ErrShortFrame
	}
	a := Auth{
		Algorithm: binary.LittleEndian.Uint16(body[0:2]),
		SeqNum:    binary.LittleEndian.Uint16(body[2:4]),
		Status:    binary.LittleEndian.Uint16(body[4:6]),
	}
	err := firstIEs(body[6:], ieSlot{IEChallenge, &a.Challenge})
	return a, err
}

// AssocReq is the body of an association request; from ParseAssocReq,
// SSID and Rates alias the parsed body.
type AssocReq struct {
	Capability uint16
	ListenIntv uint16
	SSID       []byte
	Rates      []byte
}

// AppendAssocReq appends an association-request body to dst with zero
// intermediate allocations.
func AppendAssocReq(dst []byte, a *AssocReq) []byte {
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], a.Capability)
	binary.LittleEndian.PutUint16(hdr[2:4], a.ListenIntv)
	dst = append(dst, hdr[:]...)
	dst = AppendIE(dst, IESSID, a.SSID)
	return AppendIE(dst, IESupportedRates, a.Rates)
}

// ParseAssocReq decodes an association-request body as a view, under
// ParseBeacon's rule.
func ParseAssocReq(body []byte) (AssocReq, error) {
	if len(body) < 4 {
		return AssocReq{}, ErrShortFrame
	}
	a := AssocReq{
		Capability: binary.LittleEndian.Uint16(body[0:2]),
		ListenIntv: binary.LittleEndian.Uint16(body[2:4]),
	}
	err := firstIEs(body[4:], ieSlot{IESSID, &a.SSID}, ieSlot{IESupportedRates, &a.Rates})
	return a, err
}

// AssocResp is the body of an association response; from ParseAssocResp,
// Rates aliases the parsed body.
type AssocResp struct {
	Capability uint16
	Status     uint16
	AID        uint16
	Rates      []byte
}

// AppendAssocResp appends an association-response body to dst with zero
// intermediate allocations.
func AppendAssocResp(dst []byte, a *AssocResp) []byte {
	var hdr [6]byte
	binary.LittleEndian.PutUint16(hdr[0:2], a.Capability)
	binary.LittleEndian.PutUint16(hdr[2:4], a.Status)
	binary.LittleEndian.PutUint16(hdr[4:6], a.AID)
	dst = append(dst, hdr[:]...)
	return AppendIE(dst, IESupportedRates, a.Rates)
}

// ParseAssocResp decodes an association-response body as a view, under
// ParseBeacon's rule.
func ParseAssocResp(body []byte) (AssocResp, error) {
	if len(body) < 6 {
		return AssocResp{}, ErrShortFrame
	}
	a := AssocResp{
		Capability: binary.LittleEndian.Uint16(body[0:2]),
		Status:     binary.LittleEndian.Uint16(body[2:4]),
		AID:        binary.LittleEndian.Uint16(body[4:6]),
	}
	err := firstIEs(body[6:], ieSlot{IESupportedRates, &a.Rates})
	return a, err
}

// RateByte encodes a rate in 500 kbit/s units with the basic-rate flag.
func RateByte(halfMbps int, basic bool) byte {
	b := byte(halfMbps)
	if basic {
		b |= 0x80
	}
	return b
}
