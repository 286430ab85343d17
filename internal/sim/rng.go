package sim

// Rand is a small deterministic pseudo-random number generator
// (xorshift64* with a splitmix64-seeded state). The simulation cannot use
// time- or scheduler-dependent randomness, so every source of variation in
// the experiments flows through an explicitly seeded Rand.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. Any seed (including zero)
// is valid; the state is whitened with splitmix64 so that close seeds do
// not yield correlated streams.
func NewRand(seed uint64) *Rand {
	r := &Rand{}
	r.Seed(seed)
	return r
}

// Seed resets the generator to the stream identified by seed.
func (r *Rand) Seed(seed uint64) {
	// splitmix64 step; guarantees a non-zero xorshift state.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x2545f4914f6cdd1d
	}
	r.state = z
}

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a uniform duration in [lo, hi].
func (r *Rand) Duration(lo, hi Time) Time {
	if hi <= lo {
		return lo
	}
	return lo + Time(r.Uint64()%uint64(hi-lo+1))
}

// Exp returns an exponentially distributed duration with the given mean,
// used for the open-loop Poisson inter-arrival gaps.
func (r *Rand) Exp(mean Time) Time {
	// Inverse-CDF sampling; clamp u away from 0 to avoid +Inf.
	u := r.Float64()
	if u < 1e-12 {
		u = 1e-12
	}
	d := -float64(mean) * ln(1-u)
	if d < 0 {
		d = 0
	}
	return Time(d)
}

// ln is a minimal natural-logarithm implementation so this package does
// not depend on math (keeping the deterministic core dependency-free is a
// deliberate choice; math.Log would also be fine but this makes the
// numeric behaviour fully explicit and portable).
func ln(x float64) float64 {
	if x <= 0 {
		return -27.6310211159285482 // ln(1e-12), the clamp bound above
	}
	// Range reduction: x = m * 2^e with m in [1, 2).
	e := 0
	for x >= 2 {
		x /= 2
		e++
	}
	for x < 1 {
		x *= 2
		e--
	}
	// atanh series: ln(m) = 2*atanh((m-1)/(m+1)).
	t := (x - 1) / (x + 1)
	t2 := t * t
	sum := t
	term := t
	for k := 3; k < 40; k += 2 {
		term *= t2
		sum += term / float64(k)
	}
	const ln2 = 0.6931471805599453
	return 2*sum + float64(e)*ln2
}
