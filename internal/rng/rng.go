// Package rng provides a small, deterministic pseudo-random number
// generator for the simulator.
//
// Reproducibility is a hard requirement: a scenario run twice with the same
// seed must produce bit-identical results, across Go releases and across
// refactorings that add or remove consumers of randomness. To that end the
// package implements its own generator (xoshiro256++ seeded via SplitMix64)
// instead of using math/rand, and exposes named sub-streams: each stochastic
// component of a scenario (per-station backoff, fading, traffic arrivals, …)
// owns a stream derived from the scenario seed and a stable label, so adding
// one consumer never perturbs the draws seen by another.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding xoshiro state from a single 64-bit seed.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Source is a deterministic xoshiro256++ generator. The zero value is not
// usable; construct with New or derive with Split or Derive.
type Source struct {
	s [4]uint64
	// cached normal deviate for the Box-Muller pair
	haveGauss bool
	gauss     float64
}

// New returns a Source seeded from seed. Distinct seeds yield independent
// looking streams; seed 0 is valid.
func New(seed uint64) *Source {
	s := seeded(seed)
	return &s
}

// seeded expands seed into xoshiro state through SplitMix64.
func seeded(seed uint64) Source {
	var sm = seed
	var s Source
	for i := range s.s {
		s.s[i] = splitMix64(&sm)
	}
	// xoshiro must not start at the all-zero state.
	if s.s[0]|s.s[1]|s.s[2]|s.s[3] == 0 {
		s.s[0] = 0x9e3779b97f4a7c15
	}
	return s
}

// hashLabel folds a label string into 64 bits with FNV-1a.
func hashLabel(label string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= prime
	}
	return h
}

// Split derives an independent child stream identified by label. The child
// depends only on the parent's seed material and the label, not on how many
// values the parent has produced, so stream layouts are stable under code
// motion.
func (s *Source) Split(label string) *Source {
	c := s.Derive(label)
	return &c
}

// Derive is Split by value: the same child stream, draw for draw, for a
// caller that uses it up on its own stack (a per-link, per-block fading
// draw) and would otherwise put a Source on the heap per call.
func (s *Source) Derive(label string) Source {
	// Mix the original state words with the label hash through SplitMix64.
	h := hashLabel(label)
	mix := s.s[0] ^ (s.s[1] << 1) ^ (s.s[2] << 2) ^ (s.s[3] << 3) ^ h
	return seeded(mix)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s[0]+s.s[3], 23) + s.s[0]
	t := s.s[1] << 17
	s.s[2] ^= s.s[0]
	s.s[3] ^= s.s[1]
	s.s[1] ^= s.s[2]
	s.s[0] ^= s.s[3]
	s.s[2] ^= t
	s.s[3] = rotl(s.s[3], 45)
	return result
}

// Float64 returns a uniform deviate in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation, simplified with a
	// rejection loop. Bias is rejected exactly.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := s.Uint64()
		low := v % bound
		if v-low <= ^uint64(0)-threshold {
			return int(low)
		}
	}
}

// ExpFloat64 returns an exponentially distributed deviate with mean 1.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal deviate (mean 0, stddev 1) using the
// Box-Muller transform with pair caching.
func (s *Source) NormFloat64() float64 {
	if s.haveGauss {
		s.haveGauss = false
		return s.gauss
	}
	var u, v, r2 float64
	for {
		u = 2*s.Float64() - 1
		v = 2*s.Float64() - 1
		r2 = u*u + v*v
		if r2 > 0 && r2 < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(r2) / r2)
	s.gauss = v * f
	s.haveGauss = true
	return u * f
}
