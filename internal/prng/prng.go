// Package prng is the one seeded generator every determinism contract in the
// repo hangs on: splitmix64, tiny, portable and stable across Go releases, so
// checked-in seeds and goldens reproduce forever. Callers own their seeding
// expressions and salts; this package owns the step.
package prng

// Gamma is splitmix64's state increment (2^64 / golden ratio). Callers also
// use it to spread keys such as a call index across the state space.
const Gamma = 0x9e3779b97f4a7c15

// Stream is a splitmix64 stream. The zero value is the stream seeded with 0.
type Stream struct{ state uint64 }

// New returns the stream whose state is the given seed expression.
func New(state uint64) Stream { return Stream{state: state} }

// Next advances the stream and returns its next 64-bit draw.
func (s *Stream) Next() uint64 {
	s.state += Gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn draws a value in [0, n). n must be > 0.
func (s *Stream) Intn(n int) int { return int(s.Next() % uint64(n)) }

// Float64 draws a value in [0, 1) from the top 53 bits.
func (s *Stream) Float64() float64 { return Unit(s.Next()) }

// Mix is the first draw of the stream seeded with x: a stateless hash for
// draws keyed by position instead of by sequence.
func Mix(x uint64) uint64 {
	s := Stream{state: x}
	return s.Next()
}

// Unit maps a 64-bit draw to [0, 1) through its top 53 bits.
func Unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }
