package medium

// PowerBook hands tests outside the package a radio's running antenna power
// and its in-flight arrivals' powers, appended to dst in inFlight order.
func PowerBook(r *Radio, dst []float64) (totalMW float64, inFlight []float64) {
	for _, a := range r.inFlight {
		dst = append(dst, a.powerMW)
	}
	return r.totalMW, dst
}
