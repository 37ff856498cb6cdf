// Package stats provides deterministic pseudo-random number generation
// and probability distributions for the scheduling simulations.
// Everything is seeded explicitly so that every experiment in the
// repository is reproducible bit-for-bit.
//
// The generator is xoshiro256** seeded through splitmix64, following the
// reference construction by Blackman and Vigna. It is small, fast, and has
// no global state: each RNG value is an independent stream.
package stats

import "math"

// RNG is a deterministic pseudo-random generator (xoshiro256**).
// The zero value is not valid; use NewRNG.
type RNG struct {
	s [4]uint64

	// zipfCDF is the unnormalized cumulative table of the last (s, n)
	// Zipf was asked for; a stream draws from one distribution in
	// practice, so one slot is enough.
	zipfS   float64
	zipfCDF []float64
}

// splitmix64 advances the seed and returns the next splitmix64 output.
// It is used only to initialize the xoshiro state from a single word.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// NewRNG returns a generator seeded from the given seed. Two generators
// built from the same seed produce identical streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// Avoid the (astronomically unlikely) all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be overkill
	// here; modulo bias is negligible for the ranges we use (n << 2^64),
	// but we still reject the biased tail for exactness.
	bound := uint64(n)
	threshold := -bound % bound
	for {
		v := r.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// IntRange returns a uniform integer in [lo, hi] inclusive. It panics if
// hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Range returns a uniform float64 in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// Exp returns an exponential variate with the given rate (mean 1/rate).
func (r *RNG) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("stats: Exp with non-positive rate")
	}
	// Guard against log(0).
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -math.Log(u) / rate
}

// LogNormal returns a lognormal variate with the given parameters of the
// underlying normal distribution.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Zipf returns an integer in [1, n] with probability proportional to
// 1/rank^s, by inverse transform over the cumulative table. The table is
// summed left to right, exactly as a per-draw loop would, so draws are
// bit-identical to recomputing it every time.
func (r *RNG) Zipf(s float64, n int) int {
	if n <= 0 {
		panic("stats: Zipf with non-positive n")
	}
	if len(r.zipfCDF) != n || r.zipfS != s {
		r.zipfS, r.zipfCDF = s, make([]float64, n)
		var acc float64
		for k := 1; k <= n; k++ {
			acc += 1 / math.Pow(float64(k), s)
			r.zipfCDF[k-1] = acc
		}
	}
	u := r.Float64() * r.zipfCDF[n-1]
	for k, acc := range r.zipfCDF {
		if u <= acc {
			return k + 1
		}
	}
	return n
}

// Choice returns a uniformly chosen index weighted by w (all weights must
// be non-negative, with positive sum).
func (r *RNG) Choice(w []float64) int {
	var sum float64
	for _, x := range w {
		if x < 0 {
			panic("stats: Choice with negative weight")
		}
		sum += x
	}
	if sum <= 0 {
		panic("stats: Choice with non-positive weight sum")
	}
	u := r.Float64() * sum
	var acc float64
	for i, x := range w {
		acc += x
		if u <= acc {
			return i
		}
	}
	return len(w) - 1
}
