package net80211

import "repro/internal/frame"

// ESS is an extended service set: N access points sharing one SSID and one
// wired distribution system, so stations roam between them while keeping
// wire-side reachability. The handoff mechanics live in the APs themselves
// — an AP announces every new association on the DS, and peer APs drop the
// station's stale entry when they hear it (see AP.dropStation) — the ESS
// just tracks membership and aggregates the observability the roaming
// experiments read.
type ESS struct {
	ssid string
	aps  []*AP
}

// NewESS creates an empty ESS for the given SSID.
func NewESS(ssid string) *ESS { return &ESS{ssid: ssid} }

// Add registers an AP as a member. The AP must already beacon the ESS's
// SSID and be attached to the shared DS; Add panics on an SSID mismatch
// because a mixed ESS would silently never hand off.
func (e *ESS) Add(ap *AP) {
	if ap.ssid != e.ssid {
		panic("net80211: AP " + ap.ssid + " joined ESS " + e.ssid)
	}
	e.aps = append(e.aps, ap)
}

// ServingAP returns the member AP a station is currently associated with,
// or nil. After a roam, the handoff announcement leaves at most one member
// holding the association.
func (e *ESS) ServingAP(addr frame.MACAddr) *AP {
	for _, ap := range e.aps {
		if ap.Associated(addr) {
			return ap
		}
	}
	return nil
}

// Handoffs sums the members' handoff counters: the number of stale
// associations dropped because the station re-associated elsewhere.
func (e *ESS) Handoffs() uint64 {
	var total uint64
	for _, ap := range e.aps {
		total += ap.Stats.Handoffs
	}
	return total
}
