package net80211

import "repro/internal/frame"

// assocState is the 802.11 state one side holds for the other — state 1
// (unauthenticated), 2 (authenticated), 3 (associated) — ordered by the
// frame classes each admits. A station between APs is scanning, below state
// 1 so nothing from its old target passes; an AP entry never holds it.
type assocState uint8

const (
	scanning assocState = iota
	unauthenticated
	authenticated
	associated
)

// frameClass returns the least state f's class needs (802.11-2007
// §11.3.3): class 1 — probes, beacons, authentication, deauthentication,
// RTS/CTS/ACK — in any state, class 2 — (re)association and
// disassociation — from state 2, and class 3 — PS-Poll and data, all of it
// to or from a DS here (the IBSS's own data is Adhoc's, which has no
// states) — only in state 3.
func frameClass(f *frame.Frame) assocState {
	switch f.Type {
	case frame.TypeData:
		return associated
	case frame.TypeControl:
		if f.Subtype == frame.SubtypePSPoll {
			return associated
		}
	case frame.TypeManagement:
		switch f.Subtype {
		case frame.SubtypeAssocReq, frame.SubtypeAssocResp, frame.SubtypeReassocReq,
			frame.SubtypeReassocResp, frame.SubtypeDisassoc:
			return authenticated
		}
	}
	return unauthenticated
}
