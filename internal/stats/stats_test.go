package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestBinOf(t *testing.T) {
	cases := map[int]int{
		1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4,
		1 << 10: 10, 1<<10 + 1: 11, 64 << 20: 26,
	}
	for v, want := range cases {
		if got := BinOf(v); got != want {
			t.Errorf("BinOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestBinOfHugeValues(t *testing.T) {
	// Regression: the bin loop used to compute 1<<b in int, which goes
	// negative at b=63 and zero past it, spinning forever for any
	// v > 1<<62. The largest ints must terminate at bin 63.
	cases := map[int]int{
		1 << 62:       62,
		1<<62 + 1:     63,
		math.MaxInt64: 63,
	}
	for v, want := range cases {
		if got := BinOf(v); got != want {
			t.Errorf("BinOf(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestBinOfPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for BinOf(0)")
		}
	}()
	BinOf(0)
}

func TestHistCDFMonotoneAndComplete(t *testing.T) {
	var h Hist
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		h.Add(1+rng.Intn(1<<20), float64(1+rng.Intn(5)))
	}
	cdf := h.CDF()
	prev := 0.0
	for _, p := range cdf {
		if p.Cum < prev {
			t.Fatalf("CDF not monotone at bin %d", p.Bin)
		}
		prev = p.Cum
	}
	if math.Abs(prev-1.0) > 1e-9 {
		t.Fatalf("CDF ends at %f", prev)
	}
}

func TestHistPercentiles(t *testing.T) {
	var h Hist
	h.Add(1<<10, 25) // bin 10
	h.Add(1<<12, 25) // bin 12
	h.Add(1<<14, 50) // bin 14
	if got := h.PercentileBin(0.25); got != 10 {
		t.Errorf("p25 bin = %d", got)
	}
	if got := h.MedianBin(); got != 12 {
		t.Errorf("median bin = %d", got)
	}
	if got := h.PercentileBin(0.51); got != 14 {
		t.Errorf("p51 bin = %d", got)
	}
	if got := h.PercentileBin(1.0); got != 14 {
		t.Errorf("p100 bin = %d", got)
	}
}

func TestPercentileBinDomain(t *testing.T) {
	var h Hist
	h.Add(1<<10, 25) // bin 10
	h.Add(1<<12, 25) // bin 12
	h.Add(1<<14, 50) // bin 14
	cases := []struct {
		p    float64
		want int
	}{
		// Out-of-domain inputs clamp: non-positive p is the infimum (first
		// present bin), p > 1 and NaN are the supremum (last bin).
		{0, 10},
		{-0.5, 10},
		{math.Inf(-1), 10},
		{1.5, 14},
		{math.Inf(1), 14},
		{math.NaN(), 14},
		// In-domain sanity alongside.
		{1e-9, 10},
		{0.5, 12},
		{1, 14},
	}
	for _, c := range cases {
		if got := h.PercentileBin(c.p); got != c.want {
			t.Errorf("PercentileBin(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	var empty Hist
	if got := empty.PercentileBin(0.5); got != 0 {
		t.Errorf("empty PercentileBin = %d, want 0", got)
	}
}

func TestHistFrac(t *testing.T) {
	var h Hist
	h.Add(100, 30)
	h.Add(1000, 70)
	if got := h.CDF()[0]; got.Bin != BinOf(100) || math.Abs(got.Cum-0.3) > 1e-9 {
		t.Errorf("first CDF point = %+v, want bin %d at 0.3 of the weight", got, BinOf(100))
	}
}

func TestCumAt(t *testing.T) {
	cdf := []Point{{Bin: 10, Cum: 0.5}, {Bin: 20, Cum: 1.0}}
	for bin, want := range map[int]float64{9: 0, 10: 0.5, 15: 0.5, 20: 1, 99: 1} {
		if got := CumAt(cdf, bin); got != want {
			t.Errorf("CumAt(%d) = %v, want %v", bin, got, want)
		}
	}
	if got := CumAt(nil, 10); got != 0 {
		t.Errorf("CumAt of an empty CDF = %v, want 0", got)
	}
}

func TestMaxCDFGap(t *testing.T) {
	a := []Point{{Bin: 10, Cum: 0.5}, {Bin: 20, Cum: 1.0}}
	b := []Point{{Bin: 10, Cum: 0.5}, {Bin: 20, Cum: 1.0}}
	if g := MaxCDFGap(a, b); g != 0 {
		t.Errorf("identical CDFs gap = %f", g)
	}
	c := []Point{{Bin: 10, Cum: 0.2}, {Bin: 20, Cum: 1.0}}
	if g := MaxCDFGap(a, c); math.Abs(g-0.3) > 1e-9 {
		t.Errorf("gap = %f, want 0.3", g)
	}
	// Disjoint bin sets: gap reflects evaluation at union bins.
	d := []Point{{Bin: 30, Cum: 1.0}}
	if g := MaxCDFGap(a, d); math.Abs(g-1.0) > 1e-9 {
		t.Errorf("disjoint gap = %f, want 1.0", g)
	}
}

func TestLogBinsSampleRange(t *testing.T) {
	l := MustLogBins(map[int]float64{0: 1, 5: 2, 16: 3})
	rng := rand.New(rand.NewSource(2))
	counts := map[int]int{}
	for i := 0; i < 30000; i++ {
		v := l.Sample(rng)
		b := BinOf(v)
		counts[b]++
		switch b {
		case 0, 5, 16:
		default:
			t.Fatalf("sample %d landed in bin %d", v, b)
		}
	}
	// Frequencies should roughly track weights 1:2:3.
	f0 := float64(counts[0]) / 30000
	f5 := float64(counts[5]) / 30000
	f16 := float64(counts[16]) / 30000
	if math.Abs(f0-1.0/6) > 0.02 || math.Abs(f5-2.0/6) > 0.02 || math.Abs(f16-3.0/6) > 0.02 {
		t.Errorf("sample frequencies %f %f %f", f0, f5, f16)
	}
}

func TestLogBinsSampledCDFMatchesSpec(t *testing.T) {
	weights := map[int]float64{8: 10, 12: 30, 16: 40, 20: 20}
	l := MustLogBins(weights)
	rng := rand.New(rand.NewSource(3))
	var h Hist
	for i := 0; i < 50000; i++ {
		h.Add(l.Sample(rng), 1)
	}
	if gap := MaxCDFGap(l.CDF(), h.CDF()); gap > 0.02 {
		t.Errorf("sampled CDF deviates by %f", gap)
	}
}

func TestLogBinsErrors(t *testing.T) {
	if _, err := NewLogBins(nil); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewLogBins(map[int]float64{3: -1}); err == nil {
		t.Error("negative weight accepted")
	}
	if _, err := NewLogBins(map[int]float64{3: 0}); err == nil {
		t.Error("all-zero accepted")
	}
	if _, err := NewLogBins(map[int]float64{-2: 1}); err == nil {
		t.Error("negative bin accepted")
	}
}

func TestWeightedChooser(t *testing.T) {
	c := MustWeighted([]string{"a", "b", "c"}, []float64{1, 1, 2})
	rng := rand.New(rand.NewSource(4))
	counts := map[string]int{}
	for i := 0; i < 40000; i++ {
		counts[c.Sample(rng)]++
	}
	if math.Abs(float64(counts["c"])/40000-0.5) > 0.02 {
		t.Errorf("c frequency %d/40000", counts["c"])
	}
	if math.Abs(float64(counts["a"])/40000-0.25) > 0.02 {
		t.Errorf("a frequency %d/40000", counts["a"])
	}
}

func TestWeightedErrors(t *testing.T) {
	if _, err := NewWeighted([]int{}, []float64{}); err == nil {
		t.Error("empty accepted")
	}
	if _, err := NewWeighted([]int{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewWeighted([]int{1, 2}, []float64{1, -1}); err == nil {
		t.Error("negative accepted")
	}
	if _, err := NewWeighted([]int{1}, []float64{0}); err == nil {
		t.Error("zero total accepted")
	}
}

func TestSamplePropertyWithinBins(t *testing.T) {
	f := func(seed int64, binSel uint8) bool {
		bin := int(binSel) % 28
		l, err := NewLogBins(map[int]float64{bin: 1})
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 50; i++ {
			if BinOf(l.Sample(rng)) != bin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSelectNthMatchesSort cross-checks quickselect against a full sort on
// random, sorted, reversed and constant inputs.
func TestSelectNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	shapes := map[string]func(n int) []float64{
		"random": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.Float64() * 1000
			}
			return xs
		},
		"sorted": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(i)
			}
			return xs
		},
		"reversed": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = float64(n - i)
			}
			return xs
		},
		"constant": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = 7
			}
			return xs
		},
	}
	for name, gen := range shapes {
		for _, n := range []int{1, 2, 3, 10, 101, 1000} {
			ref := gen(n)
			sorted := append([]float64(nil), ref...)
			sort.Float64s(sorted)
			for _, k := range []int{0, n / 2, n - 1, n * 99 / 100} {
				if k >= n {
					continue
				}
				work := append([]float64(nil), ref...)
				if got := SelectNth(work, k); got != sorted[k] {
					t.Fatalf("%s n=%d: SelectNth(%d) = %v, sorted %v", name, n, k, got, sorted[k])
				}
			}
		}
	}
}

func TestP99MatchesSortedIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 10, 99, 100, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		want := sorted[min(n-1, n*99/100)]
		if got := P99(xs); got != want {
			t.Errorf("n=%d: P99 = %v, want %v", n, got, want)
		}
	}
	if P99(nil) != 0 {
		t.Error("empty P99")
	}
}

// TestPercentileBinTinyWeight pins the regression the exact-CDF comparison
// fixes: a last bin whose weight fraction is below the old 1e-12 absolute
// tolerance must still be reachable. Under the old normalized comparison
// (Cum >= p-1e-12) the heavy bin's cumulative fraction 1/(1+1e-13) already
// "reached" p=1, so the documented p>=1 contract (return the last present
// bin) was silently violated.
func TestPercentileBinTinyWeight(t *testing.T) {
	var h Hist
	h.AddBin(3, 1.0)
	h.AddBin(7, 1e-13)
	if got := h.PercentileBin(1); got != 7 {
		t.Errorf("p=1 with tiny-weight tail = bin %d, want 7", got)
	}
	if got := h.PercentileBin(0.5); got != 3 {
		t.Errorf("p=0.5 = bin %d, want 3", got)
	}
	// The mirror corner: a tiny-weight FIRST bin must still be the p=0 result.
	var g Hist
	g.AddBin(2, 1e-13)
	g.AddBin(9, 1.0)
	if got := g.PercentileBin(0); got != 2 {
		t.Errorf("p=0 with tiny-weight head = bin %d, want 2", got)
	}
	if got := g.PercentileBin(1e-13 / (1.0 + 1e-13) / 2); got != 2 {
		t.Errorf("p inside tiny head fraction = bin %d, want 2", got)
	}
	if got := g.PercentileBin(0.5); got != 9 {
		t.Errorf("p=0.5 = bin %d, want 9", got)
	}
}

// TestPercentileBinExactCDF walks an exactly representable dyadic CDF and
// checks each boundary lands on the bin whose cumulative weight first reaches
// the target — no epsilon in either direction.
func TestPercentileBinExactCDF(t *testing.T) {
	var h Hist
	for b := 1; b <= 4; b++ {
		h.AddBin(b, 1)
	}
	cases := []struct {
		p    float64
		want int
	}{
		{0, 1}, {0.125, 1}, {0.25, 1}, // boundary is inclusive
		{0.250001, 2}, {0.5, 2},
		{0.500001, 3}, {0.75, 3},
		{0.750001, 4}, {0.999999, 4}, {1, 4},
	}
	for _, c := range cases {
		if got := h.PercentileBin(c.p); got != c.want {
			t.Errorf("PercentileBin(%v) = %d, want %d", c.p, got, c.want)
		}
	}
}
