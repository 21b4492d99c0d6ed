package medium

import (
	"slices"
	"unsafe"
)

// RxState hands tests outside the package a radio's receive state: its
// running antenna power and, appended to dst in inFlight order, its
// in-flight arrivals' powers. lockIn counts the in-flight arrivals that are
// its lock, locked says whether it holds one, and astray counts the
// in-flight arrivals and lock that are not elements of their transmission's
// current arrival array.
func RxState(r *Radio, dst []float64) (totalMW float64, inFlight []float64, lockIn int, locked bool, astray int) {
	for _, a := range r.inFlight {
		dst = append(dst, a.powerMW)
		if a == r.lock {
			lockIn++
		}
		if !inArrs(a) {
			astray++
		}
	}
	if r.lock != nil && !inArrs(r.lock) {
		astray++
	}
	return r.totalMW, dst, lockIn, r.lock != nil, astray
}

// inArrs reports whether a is an element of its transmission's arrs.
func inArrs(a *arrival) bool {
	size := unsafe.Sizeof(*a)
	off := uintptr(unsafe.Pointer(a)) - uintptr(unsafe.Pointer(unsafe.SliceData(a.t.arrs)))
	return off < uintptr(len(a.t.arrs))*size && off%size == 0
}

// Capacities returns the sizes of m's use-sized buffers: the arrival slots
// its pooled transmissions have at most asked arrivalRoom for, and how many
// of their arrays hold other than slices.Grow's capacity for that request
// (the size classes behind it vary with GOARCH, the requests do not); the
// capacity of the edge-order buffers orderRoom hands out — each pooled
// transmission's own, each radio's lastOwn — and how many such buffers
// there are.
func Capacities(m *Medium) (arrivals, offSize, orders, buffers int) {
	for _, t := range m.txPool {
		arrivals += t.room
		if cap(t.arrs) != cap(slices.Grow([]arrival(nil), t.room)) {
			offSize++
		}
		orders += cap(t.own)
	}
	for _, r := range m.radios {
		orders += cap(r.lastOwn)
	}
	return arrivals, offSize, orders, len(m.txPool) + len(m.radios)
}
