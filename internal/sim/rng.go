package sim

// RNG is a small deterministic pseudo-random generator (SplitMix64) used by
// workloads that need reproducible synthetic data or access-order shuffles.
// math/rand would also do, but a local generator keeps the exact sequences
// stable across Go releases, which matters for regression-testing traffic
// numbers.
//
// An RNG is NOT safe for concurrent use, and must never be shared between
// simulation runs: the parallel experiment runner (internal/experiments)
// executes runs on separate goroutines, and a shared stream would both race
// and destroy the fixed-seed determinism the tables depend on. Every run
// constructs its own generator from a constant seed (see Fork for deriving
// per-worker streams).
type RNG struct {
	state uint64
}

// Fork derives an independent generator from r's current state and a salt,
// without advancing or aliasing r's stream. Use it to hand each concurrent
// worker its own deterministic sequence: forks with distinct salts produce
// distinct streams, and the same (state, salt) always yields the same one.
func (r *RNG) Fork(salt uint64) *RNG {
	// Run the state through one SplitMix64 step mixed with the salt so
	// consecutive salts do not produce correlated seeds.
	z := r.state + 0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return NewRNG(z ^ (z >> 31))
}

// NewRNG seeds a generator. Seed 0 is remapped so the stream is never
// degenerate.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Perm returns a pseudo-random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
