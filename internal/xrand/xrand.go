// Package xrand provides a small, deterministic, splittable pseudo-random
// number generator for the simulator. Every source of randomness in a
// simulation run derives from a single root seed, and independent
// subsystems obtain independent child streams via Split, so adding a new
// consumer of randomness in one module does not perturb the draws seen by
// any other module. This keeps experiments reproducible and diffable.
//
// The generator is SplitMix64 feeding xoshiro256**, a widely used
// combination with good statistical quality and a tiny state.
package xrand

import "math"

// Rand is a deterministic PRNG stream. It is not safe for concurrent use;
// the simulator is single-threaded by construction so this is never an
// issue in practice.
type Rand struct {
	s [4]uint64
}

// New returns a stream seeded from seed. Distinct seeds give independent
// streams; the same seed always gives the same sequence.
func New(seed uint64) *Rand {
	r := &Rand{}
	r.seed(seed)
	return r
}

// seed initialises the xoshiro state from seed with SplitMix64, as
// recommended by the xoshiro authors; this avoids the all-zero state and
// decorrelates close seeds.
func (r *Rand) seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Split derives a child stream whose future output is independent of the
// parent's. The parent advances by one draw; calling Split repeatedly
// yields distinct children.
func (r *Rand) Split() *Rand {
	return New(r.Uint64())
}

// SplitInto seeds dst as an independent child stream — identical to
// Split, but into caller-provided storage so hot spawn paths can batch
// their Rand allocations.
func (r *Rand) SplitInto(dst *Rand) {
	dst.seed(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
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

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method: unbiased and fast.
	un := uint64(n)
	v := r.Uint64()
	hi, lo := mul64(v, un)
	if lo < un {
		thresh := (-un) % un
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, un)
		}
	}
	return int(hi)
}

func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += aLo * bHi
	hi = aHi*bHi + w2 + w1>>32
	lo = a * b
	return
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		return u * math.Sqrt(-2*math.Log(s)/s)
	}
}

// Normal returns a normal variate with the given mean and standard
// deviation.
func (r *Rand) Normal(mean, stdev float64) float64 {
	return mean + stdev*r.NormFloat64()
}

// LogNormal returns a log-normal variate parameterised by the mean and
// coefficient of variation of the *resulting* distribution, which is the
// natural way to say "around mean, with cv relative spread". Hot loops
// that draw repeatedly with the same parameters should build a
// LogNormalDist once instead; the variates are bit-identical.
func (r *Rand) LogNormal(mean, cv float64) float64 { return NewLogNormal(mean, cv).Draw(r) }

// LogNormalDist is a log-normal distribution with its parameters
// precomputed, so a draw costs one normal variate and one Exp.
type LogNormalDist struct {
	mean      float64
	mu, sigma float64
	fixed     bool // cv <= 0: every draw is mean and consumes no randomness
}

// NewLogNormal returns the log-normal distribution with the given mean
// and coefficient of variation (see Rand.LogNormal). It panics if mean
// <= 0. With cv <= 0 the distribution is the constant mean.
func NewLogNormal(mean, cv float64) LogNormalDist {
	if mean <= 0 {
		panic("xrand: LogNormal with non-positive mean")
	}
	if cv <= 0 {
		return LogNormalDist{mean: mean, fixed: true}
	}
	sigma2 := math.Log(1 + cv*cv)
	return LogNormalDist{
		mean:  mean,
		mu:    math.Log(mean) - sigma2/2,
		sigma: math.Sqrt(sigma2),
	}
}

// Draw returns one variate from r.
func (d LogNormalDist) Draw(r *Rand) float64 {
	if d.fixed {
		return d.mean
	}
	return math.Exp(d.mu + d.sigma*r.NormFloat64())
}

// Exp returns an exponential variate with the given mean.
func (r *Rand) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("xrand: Exp with non-positive mean")
	}
	u := r.Float64()
	// Guard against log(0).
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle permutes a slice in place using swap, Fisher–Yates style.
func (r *Rand) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen index weighted by weights; weights must
// be non-negative and not all zero.
func (r *Rand) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			panic("xrand: negative weight")
		}
		total += w
	}
	if total == 0 {
		panic("xrand: all-zero weights")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
