package corpus

import (
	"math"
	"math/rand"
	"testing"
)

// rngBounds is every Intn bound the record loops use, and 1<<30+1: just over
// half of all 31-bit draws lie above its largest multiple, so the redraw loop
// runs every other call (at n = 3 it would run twice in 2^31 draws).
var rngBounds = []int{
	2, 4, 8, 16, 256, 1 << 10, 1 << 16, 1 << 20, 1 << 24, // intnPow2
	3, 5, 6, 10, 14, 100, 5000, 1<<30 + 1, // intn
}

// checkAgainstMathRand seeds both generators and makes the same mixed draws
// from each, failing at the first that differs.
func checkAgainstMathRand(t *testing.T, seed int64, bounds []int, draws int) {
	t.Helper()
	ref := rand.New(rand.NewSource(seed))
	var r rng
	r.seed(seed)
	for i := 0; i < draws; i++ {
		switch pick := i % (len(bounds) + 2); pick {
		case 0:
			if got, want := r.uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: uint64 = %#x, math/rand %#x", seed, i, got, want)
			}
		case 1:
			if got, want := r.float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: float64 = %v, math/rand %v", seed, i, got, want)
			}
		default:
			n := bounds[pick-2]
			draw := r.intn
			if n&(n-1) == 0 {
				draw = r.intnPow2
			}
			if got, want := draw(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, math/rand %d", seed, i, n, got, want)
			}
		}
	}
}

// TestRNGMatchesMathRand holds rng to the stream it replaces. The seeds are
// the edges of rngSource.Seed's reduction: zero and its stand-in, negatives,
// the modulus and its neighbours, and the ends of int64.
func TestRNGMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{
		0, 1, -5, 89482311, 1<<31 - 2, 1<<31 - 1, 1 << 31, -(1<<31 - 1), 1 << 40,
		math.MinInt64, math.MaxInt64,
	} {
		checkAgainstMathRand(t, seed, rngBounds, 5000)
	}
}

func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint32(3))
	f.Add(int64(-1), uint32(1<<30+1))
	f.Add(int64(1<<31-1), uint32(1<<31-1))
	f.Add(int64(math.MinInt64), uint32(1<<20))
	f.Add(int64(89482311), uint32(110))
	f.Fuzz(func(t *testing.T, seed int64, n uint32) {
		n &= 1<<31 - 1 // Intn's 31-bit path, the only one the package takes
		if n == 0 {
			n = 1
		}
		checkAgainstMathRand(t, seed, []int{int(n)}, 700)
	})
}
