// Package rng provides a small, deterministic, splittable pseudo-random
// number generator used by every stochastic component of the simulator.
//
// Reproducibility is a hard requirement for the experiment harness: a run is
// fully determined by its seed. The standard library's math/rand is avoided
// because its global functions are shared mutable state and because the
// simulator needs cheap, independent per-node streams that are stable across
// Go releases. The generator is xoshiro256** (Blackman & Vigna), seeded via
// SplitMix64.
package rng

import "math"

// Source is a deterministic xoshiro256** random number generator.
// The zero value is not usable; construct with New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// New returns a Source seeded from seed using SplitMix64 so that nearby
// integer seeds still yield well-separated states.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed reinitializes the source in place from seed, producing exactly the
// state New(seed) would. It is the allocation-free path for pools that
// re-seed a long-lived Source once per run.
func (s *Source) Reseed(seed uint64) {
	sm := seed
	next := func() uint64 {
		sm += splitMixGamma
		return splitMix(sm)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	// xoshiro requires a nonzero state; SplitMix64 never produces all-zero
	// output for four consecutive draws, but guard anyway.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s3 = 1
	}
}

// splitMixGamma is SplitMix64's state increment.
const splitMixGamma = 0x9e3779b97f4a7c15

// splitMix is SplitMix64's output function of its state z.
func splitMix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// FirstFloat64 returns exactly New(seed).Float64() without building the
// generator. xoshiro256**'s first output reads only the state word s1,
// which is the second SplitMix64 draw from seed, so one draw suffices. It
// is the cheap path for stateless coins hashed from (seed, ...) tuples.
func FirstFloat64(seed uint64) float64 {
	return float64(FirstBits53(seed)) / (1 << 53)
}

// FirstBits53 returns the 53-bit integer k behind FirstFloat64:
// FirstFloat64(seed) is exactly k/2^53, with no rounding, since k < 2^53.
// A coin "FirstFloat64(seed) < q" is therefore the integer compare
// "FirstBits53(seed) < ⌈q·2^53⌉", which needs no float conversion.
func FirstBits53(seed uint64) uint64 {
	s1 := splitMix(seed + splitMixGamma + splitMixGamma)
	return (rotl(s1*5, 7) * 9) >> 11
}

// Split derives an independent child stream. The parent advances, so
// successive Split calls return distinct streams. Children are seeded from
// the parent's output, giving a tree of decorrelated generators (one per
// node, per experiment repetition, and so on).
func (s *Source) Split() *Source {
	return New(s.Uint64() ^ 0xd3c5f1b2a4e69780)
}

// SplitInto is Split writing the child stream into dst instead of
// allocating one: the parent advances by the same single draw, and dst
// receives exactly the state Split would have returned. Pools use it to
// re-seed per-node sources without a per-run allocation.
func (s *Source) SplitInto(dst *Source) {
	dst.Reseed(s.Uint64() ^ 0xd3c5f1b2a4e69780)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	// 53 high bits scaled by 2^-53, the standard unbiased construction.
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand; callers always pass structural sizes that are positive.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Bool returns true with probability p. Probabilities outside [0,1] clamp:
// p<=0 is always false, p>=1 always true, matching the protocol's semantics
// for degenerate parameter settings (p=0 is PSM, p=1 always forwards).
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// ExpFloat64 returns an exponentially distributed value with mean 1, via
// inversion. Used for Poisson inter-arrival sampling in workloads.
func (s *Source) ExpFloat64() float64 {
	for {
		u := s.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (s *Source) NormFloat64() float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	return s.PermInto(nil, n)
}

// PermInto fills buf with a uniformly random permutation of [0, n),
// growing it only when its capacity is insufficient. The draws are
// identical to Perm's, so pooled callers produce the same permutation a
// fresh Perm call would.
func (s *Source) PermInto(buf []int, n int) []int {
	if cap(buf) < n {
		buf = make([]int, n)
	}
	p := buf[:n]
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomizes the order of n elements using swap (Fisher-Yates).
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
