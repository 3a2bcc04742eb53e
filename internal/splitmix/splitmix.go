// Package splitmix is the one seeded generator behind every random draw
// in the repository: generated cases, compressor sampling, network loss,
// chaos payload corruption and the flight recorder's reservoir. It is
// the splitmix64 stream — tiny, allocation-free and identical on every
// platform and Go version, with none of math/rand's cross-version
// stability caveats — so a printed seed alone reproduces a run.
package splitmix

// golden is the stream increment: 2^64 over the golden ratio, odd.
const golden = 0x9e3779b97f4a7c15

// Rand is a splitmix64 stream. Its value is the generator state, so
// Rand(seed) seeds it and a copy continues the same stream.
type Rand uint64

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	*r += golden
	return mix(uint64(*r))
}

// Float64 returns a uniform draw in [0, 1).
func (r *Rand) Float64() float64 { return float64(r.Uint64()>>11) / (1 << 53) }

// Intn returns a uniform draw in [0, n).
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("splitmix: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Nth is the n-th Uint64 (counting from 1) of the stream seeded at seed,
// computed without drawing the n-1 before it.
func Nth(seed, n uint64) uint64 { return mix(seed + n*golden) }

// mix is the splitmix64 output finalizer.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
