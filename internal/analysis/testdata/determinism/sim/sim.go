// Package sim exercises the determinism contract inside a
// sim-deterministic package (matched by package base name, so this fixture
// shares the predicate with the real internal/sim).
package sim

import (
	crand "crypto/rand"
	"math/rand"
	"time"

	"repro/internal/rng"
)

func clock() int64 {
	return time.Now().UnixNano() // want "time.Now reads the wall clock"
}

func sleepy() {
	time.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
}

func roll() int {
	return rand.Intn(6) // want "math/rand is not seed-reproducible"
}

func noise(b []byte) {
	crand.Read(b) // want "crypto/rand is nondeterministic by design"
}

func iterate(m map[int]int) int {
	var sum int
	for _, v := range m { // want "map iteration order is randomized"
		sum += v
	}
	return sum
}

// allowedIterate carries an audited escape: the directive suppresses the
// map-range finding on the line below it.
func allowedIterate(m map[int]int) int {
	var sum int
	//wlan:allow-nondeterminism fixture: order-independent integer sum
	for _, v := range m {
		sum += v
	}
	return sum
}

func allowedRoll() int {
	//wlan:allow-nondeterminism fixture: audited escape for testing
	return rand.Intn(6)
}

// trailingAllow: a directive after code on its line covers that line
// only, not the one below it.
func trailingAllow() int {
	a := rand.Intn(6) //wlan:allow-nondeterminism fixture: covers this line only
	b := rand.Intn(6) // want "math/rand is not seed-reproducible"
	return a + b
}

// seeded randomness from internal/rng is the sanctioned source.
func seeded(src *rng.Source) int {
	return src.Intn(6)
}

// elapsed uses time only for arithmetic on values, not the wall clock.
func elapsed(d time.Duration) float64 {
	return d.Seconds()
}

// sliceRange is deterministic: only map ranges are order-randomized.
func sliceRange(s []int) int {
	var sum int
	for _, v := range s {
		sum += v
	}
	return sum
}
