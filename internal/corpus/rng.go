package corpus

import "math/rand"

// rng is math/rand's seeded source — the additive lagged-Fibonacci generator
// x[n] = x[n-273] + x[n-607], frozen by the Go 1 compatibility promise — as a
// concrete type, draw for draw what rand.New(rand.NewSource(seed)) returns.
// Every byte this package has ever generated came from that stream, and every
// fingerprint, golden and EXPERIMENTS.md table downstream rests on those
// bytes, so the stream stays. What changes is how it is reached: the draws
// inline into the record loops instead of going through rand.Source, and
// reseeding is a table of independent products instead of a dependent chain.
// TestRNGMatchesMathRand holds it to math/rand.
type rng struct {
	tap int // rngSource keeps a second index, feed; it is always tap-273 mod 607
	vec [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273

	// rngSource.Seed walks x <- 48271*x mod 2^31-1 (seedrand is Schrage's
	// division-free form of exactly that product): 20 warm-up steps, then three
	// more for each of the 607 state words.
	seedMul    = 48271
	seedMod    = 1<<31 - 1
	seedWarmup = 20
)

var (
	// seedPow[i] = 48271^(21+3i) mod 2^31-1: what x0 is multiplied by to
	// reach the first of word i's three chain values without walking there.
	seedPow [rngLen]uint64
	// rngCooked is math/rand's additive seeding table, recovered from its
	// output instead of copied from its source.
	rngCooked [rngLen]int64
)

// mulmod returns a*b mod 2^31-1 for a, b in [1, 2^31-2]. 2^31 is 1 mod
// 2^31-1, so folding the high bits onto the low ones preserves the residue:
// the first fold leaves at most 2^32-2, the second at most 2^31-1, and
// 2^31-1 itself would mean a*b divides by the prime modulus, which neither
// factor does. The result is in [1, 2^31-2] with no final subtract.
func mulmod(a, b uint64) uint64 {
	p := a * b
	p = p&seedMod + p>>31
	return p&seedMod + p>>31
}

func init() {
	p := uint64(1)
	for i := 0; i <= seedWarmup; i++ {
		p = mulmod(p, seedMul)
	}
	for i := range seedPow {
		seedPow[i] = p
		p = mulmod(mulmod(mulmod(p, seedMul), seedMul), seedMul)
	}

	// Draw k of a fresh source adds vec[606-k] into vec[(333-k) mod 607] and
	// returns the sum. The first 273 draws read taps no draw has written
	// yet; from draw 273 on the tap holds draw k-273's output. So the late
	// draws give up the initial words they fed, and with those as the known
	// taps the early draws give up the rest.
	const feed0 = rngLen - rngTap - 1 // 333, the first draw's feed
	var out, vec [rngLen]int64
	src := rand.NewSource(1).(rand.Source64)
	for k := range out {
		out[k] = int64(src.Uint64())
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(feed0-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[feed0-k] = out[k] - vec[rngLen-1-k]
	}
	var r rng
	r.seed(1) // rngCooked is still zero: vec is the bare chain words
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ r.vec[i]
	}
}

// seed puts r in the state rand.NewSource(seed) starts in. Each state word
// packs three consecutive chain values; word i's first is x0*seedPow[i], so no
// word waits on another — rngSource.Seed's 1841 dependent steps become 607
// independent chains of three.
func (r *rng) seed(seed int64) {
	r.tap = 0

	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range r.vec {
		x1 := mulmod(x0, seedPow[i])
		x2 := mulmod(x1, seedMul)
		x3 := mulmod(x2, seedMul)
		r.vec[i] = int64(x1<<40^x2<<20^x3) ^ rngCooked[i]
	}
}

// uint64 is rngSource.Uint64. tap lives in a local between its load and its
// one store so that the draw, inlined into a record loop, is a single
// store-to-load chain from one draw to the next.
func (r *rng) uint64() uint64 {
	tap := r.tap - 1
	if tap < 0 {
		tap += rngLen
	}
	r.tap = tap
	feed := tap - rngTap
	if feed < 0 {
		feed += rngLen
	}
	x := r.vec[feed] + r.vec[tap]
	r.vec[feed] = x
	return uint64(x)
}

// int31 is Rand.Int31: the top 31 bits of Int63.
func (r *rng) int31() int { return int(r.uint64() << 1 >> 33) }

// float64 is Rand.Float64 — the Go 1 stream, float64(Int63()) / 2^63 with a
// redraw when that rounds up to 1, not the 53-bit form.
func (r *rng) float64() float64 {
	for {
		if f := float64(int64(r.uint64()<<1>>1)) / (1 << 63); f < 1 {
			return f
		}
	}
}

// intnPow2 is Rand.Intn(n) for n a power of two at most 2^30.
func (r *rng) intnPow2(n int) int { return r.int31() & (n - 1) }

// intn is Rand.Intn(n) for every other n below 2^31: redraw above the largest
// multiple of n, then reduce. Callers pass constants, so inlined the bound
// folds and the reduction is a multiply and a shift. (int31 is spelled out:
// through the call, intn is two over the compiler's inlining budget.)
func (r *rng) intn(n int) int {
	for {
		if v := int(r.uint64() << 1 >> 33); v < 1<<31-1<<31%n {
			return v % n
		}
	}
}
