package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// Type is the 2-bit frame type from the Frame Control field.
type Type uint8

// Frame types.
const (
	TypeManagement Type = 0
	TypeControl    Type = 1
	TypeData       Type = 2
)

func (t Type) String() string {
	switch t {
	case TypeManagement:
		return "mgmt"
	case TypeControl:
		return "ctrl"
	case TypeData:
		return "data"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Subtype is the 4-bit frame subtype. Its meaning depends on Type.
type Subtype uint8

// Management subtypes.
const (
	SubtypeAssocReq    Subtype = 0
	SubtypeAssocResp   Subtype = 1
	SubtypeReassocReq  Subtype = 2
	SubtypeReassocResp Subtype = 3
	SubtypeProbeReq    Subtype = 4
	SubtypeProbeResp   Subtype = 5
	SubtypeBeacon      Subtype = 8
	SubtypeDisassoc    Subtype = 10
	SubtypeAuth        Subtype = 11
	SubtypeDeauth      Subtype = 12
)

// Control subtypes.
const (
	SubtypePSPoll Subtype = 10
	SubtypeRTS    Subtype = 11
	SubtypeCTS    Subtype = 12
	SubtypeACK    Subtype = 13
)

// Data subtypes.
const (
	SubtypeData     Subtype = 0
	SubtypeNullData Subtype = 4
)

// Name returns a human-readable name for a (type, subtype) pair.
func Name(t Type, s Subtype) string {
	switch t {
	case TypeManagement:
		switch s {
		case SubtypeAssocReq:
			return "assoc-req"
		case SubtypeAssocResp:
			return "assoc-resp"
		case SubtypeReassocReq:
			return "reassoc-req"
		case SubtypeReassocResp:
			return "reassoc-resp"
		case SubtypeProbeReq:
			return "probe-req"
		case SubtypeProbeResp:
			return "probe-resp"
		case SubtypeBeacon:
			return "beacon"
		case SubtypeDisassoc:
			return "disassoc"
		case SubtypeAuth:
			return "auth"
		case SubtypeDeauth:
			return "deauth"
		}
	case TypeControl:
		switch s {
		case SubtypePSPoll:
			return "ps-poll"
		case SubtypeRTS:
			return "rts"
		case SubtypeCTS:
			return "cts"
		case SubtypeACK:
			return "ack"
		}
	case TypeData:
		switch s {
		case SubtypeData:
			return "data"
		case SubtypeNullData:
			return "null"
		}
	}
	return fmt.Sprintf("%v/%d", t, uint8(s))
}

// MaxSeq is the sequence-number modulus (12-bit counter).
const MaxSeq = 4096

// Header and trailer sizes in bytes.
const (
	FCSLen        = 4
	DataHdrLen    = 24 // 3-address data/management header
	FourAddrLen   = 30 // WDS 4-address header
	RTSLen        = 20 // FC+Dur+RA+TA+FCS
	CTSLen        = 14 // FC+Dur+RA+FCS
	ACKLen        = 14
	PSPollLen     = 20
	MaxMSDU       = 2304 // maximum MAC service data unit
	MaxMPDU       = 2346 // maximum MAC protocol data unit
	SnapHeaderLen = 8
)

// Frame is a parsed 802.11 MPDU. The zero value is an empty data frame.
type Frame struct {
	Type    Type
	Subtype Subtype

	// Frame Control flags.
	ToDS      bool
	FromDS    bool
	MoreFrag  bool
	Retry     bool
	PwrMgmt   bool
	MoreData  bool
	Protected bool // the WEP bit
	Order     bool

	// Duration/ID field: NAV microseconds, or AID for PS-Poll.
	Duration uint16

	Addr1 MACAddr // RA (receiver)
	Addr2 MACAddr // TA (transmitter)
	Addr3 MACAddr // BSSID / DA / SA depending on ToDS/FromDS
	Addr4 MACAddr // only present when ToDS && FromDS

	Seq  uint16 // 12-bit sequence number
	Frag uint8  // 4-bit fragment number

	Body []byte
	// Zeros counts the zero bytes that follow Body on the wire but are not
	// stored; unprotected data sends set it, decoded frames carry 0.
	Zeros int
}

// DA returns the destination address according to the ToDS/FromDS bits.
func (f *Frame) DA() MACAddr {
	switch {
	case !f.ToDS && !f.FromDS:
		return f.Addr1
	case !f.ToDS && f.FromDS:
		return f.Addr1
	case f.ToDS && !f.FromDS:
		return f.Addr3
	default:
		return f.Addr3
	}
}

// SA returns the source address according to the ToDS/FromDS bits.
func (f *Frame) SA() MACAddr {
	switch {
	case !f.ToDS && !f.FromDS:
		return f.Addr2
	case !f.ToDS && f.FromDS:
		return f.Addr3
	case f.ToDS && !f.FromDS:
		return f.Addr2
	default:
		return f.Addr4
	}
}

// BSSID returns the BSSID field position for non-WDS frames.
func (f *Frame) BSSID() MACAddr {
	switch {
	case !f.ToDS && !f.FromDS:
		return f.Addr3
	case !f.ToDS && f.FromDS:
		return f.Addr2
	case f.ToDS && !f.FromDS:
		return f.Addr1
	default:
		return MACAddr{}
	}
}

// IsCTSOrACK reports whether this frame uses the short 1-address control
// layout.
func (f *Frame) IsCTSOrACK() bool {
	return f.Type == TypeControl && (f.Subtype == SubtypeCTS || f.Subtype == SubtypeACK)
}

// IsRTSOrPSPoll reports whether this frame uses the 2-address control layout.
func (f *Frame) IsRTSOrPSPoll() bool {
	return f.Type == TypeControl && (f.Subtype == SubtypeRTS || f.Subtype == SubtypePSPoll)
}

// WireLen returns the MPDU length in bytes, including the FCS, without
// encoding.
func (f *Frame) WireLen() int {
	switch {
	case f.IsCTSOrACK():
		return CTSLen
	case f.IsRTSOrPSPoll():
		return RTSLen
	case f.ToDS && f.FromDS:
		return FourAddrLen + len(f.Body) + f.Zeros + FCSLen
	default:
		return DataHdrLen + len(f.Body) + f.Zeros + FCSLen
	}
}

// frameControl packs the first two bytes of the header.
func (f *Frame) frameControl() [2]byte {
	var b0, b1 byte
	b0 = byte(f.Type)<<2 | byte(f.Subtype)<<4 // protocol version 0 in bits 0-1
	if f.ToDS {
		b1 |= 1 << 0
	}
	if f.FromDS {
		b1 |= 1 << 1
	}
	if f.MoreFrag {
		b1 |= 1 << 2
	}
	if f.Retry {
		b1 |= 1 << 3
	}
	if f.PwrMgmt {
		b1 |= 1 << 4
	}
	if f.MoreData {
		b1 |= 1 << 5
	}
	if f.Protected {
		b1 |= 1 << 6
	}
	if f.Order {
		b1 |= 1 << 7
	}
	return [2]byte{b0, b1}
}

func (f *Frame) setFrameControl(b0, b1 byte) error {
	if b0&0x03 != 0 {
		return fmt.Errorf("frame: unsupported protocol version %d", b0&0x03)
	}
	f.Type = Type((b0 >> 2) & 0x03)
	f.Subtype = Subtype((b0 >> 4) & 0x0f)
	f.ToDS = b1&(1<<0) != 0
	f.FromDS = b1&(1<<1) != 0
	f.MoreFrag = b1&(1<<2) != 0
	f.Retry = b1&(1<<3) != 0
	f.PwrMgmt = b1&(1<<4) != 0
	f.MoreData = b1&(1<<5) != 0
	f.Protected = b1&(1<<6) != 0
	f.Order = b1&(1<<7) != 0
	return nil
}

// AppendWire serialises the frame to its wire layout onto buf, appends the
// computed FCS and returns the extended slice. It is the only MPDU encoder:
// the medium reuses transmission buffers across frames, so the hot path never
// allocates a wire image, and AppendWire(nil) is the one-off form.
//
//wlan:hotpath
func (f *Frame) AppendWire(buf []byte) []byte {
	start := len(buf)
	fc := f.frameControl()
	buf = append(buf, fc[0], fc[1])
	buf = binary.LittleEndian.AppendUint16(buf, f.Duration)
	buf = append(buf, f.Addr1[:]...)
	switch {
	case f.IsCTSOrACK():
		// FC, Duration, RA only.
	case f.IsRTSOrPSPoll():
		buf = append(buf, f.Addr2[:]...)
	default:
		buf = append(buf, f.Addr2[:]...)
		buf = append(buf, f.Addr3[:]...)
		seqCtl := f.Seq<<4 | uint16(f.Frag&0x0f)
		buf = binary.LittleEndian.AppendUint16(buf, seqCtl)
		if f.ToDS && f.FromDS {
			buf = append(buf, f.Addr4[:]...)
		}
		n := len(buf) + len(f.Body)
		buf = slices.Grow(append(buf, f.Body...), f.Zeros)[:n+f.Zeros]
		clear(buf[n:])
	}
	fcs := crc32.ChecksumIEEE(buf[start:])
	buf = binary.LittleEndian.AppendUint32(buf, fcs)
	return buf
}

// UnmarshalInto errors.
var (
	ErrShortFrame = errors.New("frame: truncated")
	ErrBadFCS     = errors.New("frame: FCS mismatch")
)

// lengthErr builds the fixed-length mismatch error for control frames. It
// is a separate cold-path constructor so the fmt boxing it implies stays
// out of UnmarshalInto.
func lengthErr(f *Frame, got, want int) error {
	return fmt.Errorf("frame: %s has length %d, want %d", Name(f.Type, f.Subtype), got, want)
}

// UnmarshalInto parses a wire image into f, verifying the FCS, without
// allocating: f.Body aliases b's payload bytes. The frame is therefore a
// *view* — it is valid only as long as the caller keeps b intact. Callers
// that retain the frame (or its body) beyond b's lifetime must Clone it.
// Every field of f is overwritten, so pooled Frame structs need no clearing
// between uses. On error f is left in an unspecified state.
//
//wlan:hotpath
func UnmarshalInto(f *Frame, b []byte) error {
	if len(b) < CTSLen {
		return ErrShortFrame
	}
	payload, fcsBytes := b[:len(b)-FCSLen], b[len(b)-FCSLen:]
	want := binary.LittleEndian.Uint32(fcsBytes)
	if crc32.ChecksumIEEE(payload) != want {
		return ErrBadFCS
	}
	*f = Frame{}
	if err := f.setFrameControl(payload[0], payload[1]); err != nil {
		return err
	}
	f.Duration = binary.LittleEndian.Uint16(payload[2:4])
	copy(f.Addr1[:], payload[4:10])
	switch {
	case f.IsCTSOrACK():
		if len(payload) != CTSLen-FCSLen {
			return lengthErr(f, len(b), CTSLen)
		}
	case f.IsRTSOrPSPoll():
		if len(payload) != RTSLen-FCSLen {
			return lengthErr(f, len(b), RTSLen)
		}
		copy(f.Addr2[:], payload[10:16])
	default:
		if len(payload) < DataHdrLen {
			return ErrShortFrame
		}
		copy(f.Addr2[:], payload[10:16])
		copy(f.Addr3[:], payload[16:22])
		seqCtl := binary.LittleEndian.Uint16(payload[22:24])
		f.Seq = seqCtl >> 4
		f.Frag = uint8(seqCtl & 0x0f)
		bodyStart := DataHdrLen
		if f.ToDS && f.FromDS {
			if len(payload) < FourAddrLen {
				return ErrShortFrame
			}
			copy(f.Addr4[:], payload[24:30])
			bodyStart = FourAddrLen
		}
		f.Body = payload[bodyStart:]
	}
	return nil
}

// Clone returns a deep copy: fresh storage for the stored body, Zeros kept,
// so it survives reuse of the wire buffer a view aliases. It is the
// retention escape hatch for UnmarshalInto consumers.
func (f *Frame) Clone() *Frame {
	cp := *f
	if f.Body != nil {
		cp.Body = append([]byte(nil), f.Body...)
	}
	return &cp
}

func (f *Frame) String() string {
	return fmt.Sprintf("%s ra=%v ta=%v seq=%d/%d len=%d",
		Name(f.Type, f.Subtype), f.Addr1, f.Addr2, f.Seq, f.Frag, f.WireLen())
}

// NewData builds a 3-address data frame. The ToDS/FromDS bits and address
// interpretation follow the standard's Table: within an IBSS all three of
// RA/TA/BSSID appear; to an AP addr3 is the final DA; from an AP addr3 is
// the original SA.
func NewData(ra, ta, addr3 MACAddr, toDS, fromDS bool, body []byte) *Frame {
	return &Frame{
		Type: TypeData, Subtype: SubtypeData,
		ToDS: toDS, FromDS: fromDS,
		Addr1: ra, Addr2: ta, Addr3: addr3,
		Body: body,
	}
}

var zeroBlock [256]byte

// ZeroTail returns the number of zero bytes that end b, comparing blocks of
// halving width against a zero array rather than looping over bytes.
func ZeroTail(b []byte) int {
	n := len(b)
	for w := len(zeroBlock); w > 0; w /= 2 {
		for n >= w && bytes.Equal(b[n-w:n], zeroBlock[:w]) {
			n -= w
		}
	}
	return len(b) - n
}

// LLC/SNAP encapsulation. Data frame bodies carry an 802.2 LLC header with a
// SNAP extension in real networks; we reproduce it so payload sizes on the
// wire are honest.

// AppendSNAP appends an LLC/SNAP header followed by the payload onto dst and
// returns the extended slice: the transmit fast path builds every
// data-frame body into a reused per-node buffer, so steady-state sends
// never allocate an encapsulation.
func AppendSNAP(dst []byte, etherType uint16, payload []byte) []byte {
	dst = append(dst, 0xaa, 0xaa, 0x03, 0x00, 0x00, 0x00, byte(etherType>>8), byte(etherType))
	return append(dst, payload...)
}

// DecapSNAP splits an LLC/SNAP body into EtherType and payload; payload is
// a view aliasing body.
func DecapSNAP(body []byte) (etherType uint16, payload []byte, err error) {
	if len(body) < SnapHeaderLen {
		return 0, nil, ErrShortFrame
	}
	if body[0] != 0xaa || body[1] != 0xaa || body[2] != 0x03 {
		return 0, nil, errors.New("frame: not an LLC/SNAP body")
	}
	return uint16(body[6])<<8 | uint16(body[7]), body[8:], nil
}
