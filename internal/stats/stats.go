// Package stats provides the distribution machinery shared by the synthetic
// fleet model, the HyperCompressBench generator and the experiment harness:
// log2-binned histograms and CDFs (the paper presents call sizes and window
// sizes as ceil(log2) bins — Figures 3, 5, 6, 7), weighted samplers, and
// CDF-distance validation helpers.
package stats

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// BinOf returns the ceil(log2(v)) bin of a positive value, the x-axis used
// throughout the paper's distribution figures. BinOf(1) = 0.
func BinOf(v int) int {
	if v <= 0 {
		panic(fmt.Sprintf("stats: BinOf(%d)", v))
	}
	// Compare in uint64: the signed form (1<<b < v) never terminates for
	// v > 1<<62, because 1<<63 is negative and Go defines 1<<64 as 0. In
	// uint64 the loop stops at b = 63 (1<<63 exceeds MaxInt64).
	b := 0
	for uint64(1)<<b < uint64(v) {
		b++
	}
	return b
}

// Point is one step of a cumulative distribution over log2 bins.
type Point struct {
	Bin int     // ceil(log2(value))
	Cum float64 // cumulative weight fraction through this bin
}

// Hist is a weighted histogram over log2 bins.
//
// The zero value is ready to use.
type Hist struct {
	bins  map[int]float64
	total float64
}

// Add records a value with the given weight (the paper's distributions are
// weighted by bytes, not by call count).
func (h *Hist) Add(value int, weight float64) {
	if h.bins == nil {
		h.bins = make(map[int]float64)
	}
	h.bins[BinOf(value)] += weight
	h.total += weight
}

// AddBin records weight directly into a bin.
func (h *Hist) AddBin(bin int, weight float64) {
	if h.bins == nil {
		h.bins = make(map[int]float64)
	}
	h.bins[bin] += weight
	h.total += weight
}

// Bins returns the sorted bin indices present.
func (h *Hist) Bins() []int {
	out := make([]int, 0, len(h.bins))
	for b := range h.bins {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// CDF returns the cumulative distribution, one Point per present bin.
func (h *Hist) CDF() []Point {
	bins := h.Bins()
	out := make([]Point, 0, len(bins))
	cum := 0.0
	for _, b := range bins {
		cum += h.bins[b]
		frac := 1.0
		if h.total > 0 {
			frac = cum / h.total
		}
		out = append(out, Point{Bin: b, Cum: frac})
	}
	return out
}

// PercentileBin returns the smallest bin at which the CDF reaches p. The
// domain is clamped to [0, 1]: any p <= 0 returns the first present bin (the
// infimum — every bin's cumulative weight reaches a non-positive target) and
// any p >= 1, or NaN, returns the last. An empty histogram returns bin 0.
//
// The comparison is exact, on unnormalized weights: cum >= p × total. The
// earlier normalized form carried an absolute 1e-12 tolerance, which returned
// a too-early bin whenever a later bin's weight fraction fell below 1e-12 —
// exactly the regime a million-tenant weighted histogram hits, where one
// tenant's weight can be a 1e-13 sliver of the total.
func (h *Hist) PercentileBin(p float64) int {
	bins := h.Bins()
	if len(bins) == 0 {
		return 0
	}
	if math.IsNaN(p) || p >= 1 {
		return bins[len(bins)-1]
	}
	if p < 0 {
		p = 0
	}
	target := p * h.total
	cum := 0.0
	for _, b := range bins {
		cum += h.bins[b]
		if cum >= target {
			return b
		}
	}
	// Unreachable for well-formed weights (cum ends at total >= target), but
	// float rounding in a different accumulation order keeps this honest.
	return bins[len(bins)-1]
}

// MedianBin returns the 50th-percentile bin.
func (h *Hist) MedianBin() int { return h.PercentileBin(0.5) }

// CumAt returns a CDF's cumulative fraction through bin: the Cum of its last
// step at or below bin, or 0 below its first.
func CumAt(cdf []Point, bin int) float64 {
	v := 0.0
	for _, pt := range cdf {
		if pt.Bin > bin {
			break
		}
		v = pt.Cum
	}
	return v
}

// MaxCDFGap returns the Kolmogorov–Smirnov-style maximum vertical distance
// between two log2-bin CDFs, evaluating both at every bin present in either.
func MaxCDFGap(a, b []Point) float64 {
	binSet := map[int]bool{}
	for _, pt := range a {
		binSet[pt.Bin] = true
	}
	for _, pt := range b {
		binSet[pt.Bin] = true
	}
	gap := 0.0
	for bin := range binSet {
		d := math.Abs(CumAt(a, bin) - CumAt(b, bin))
		if d > gap {
			gap = d
		}
	}
	return gap
}

// LogBins is a sampleable distribution over log2 bins: bin b holds values in
// (2^(b-1), 2^b] (bin 0 holds exactly 1). Sampling picks a bin by weight and
// then a value log-uniformly within it.
type LogBins struct {
	bins    []int
	cum     []float64
	weights map[int]float64
}

// NewLogBins builds a distribution from bin→weight. Weights need not be
// normalized.
func NewLogBins(weights map[int]float64) (*LogBins, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("stats: empty LogBins")
	}
	l := &LogBins{weights: make(map[int]float64, len(weights))}
	for b, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("stats: negative weight for bin %d", b)
		}
		if b < 0 {
			return nil, fmt.Errorf("stats: negative bin %d", b)
		}
		if w > 0 {
			l.bins = append(l.bins, b)
			l.weights[b] = w
		}
	}
	if len(l.bins) == 0 {
		return nil, fmt.Errorf("stats: all-zero LogBins")
	}
	sort.Ints(l.bins)
	total := 0.0
	for _, b := range l.bins {
		total += l.weights[b]
	}
	l.cum = make([]float64, len(l.bins))
	cum := 0.0
	for i, b := range l.bins {
		cum += l.weights[b] / total
		l.cum[i] = cum
	}
	return l, nil
}

// MustLogBins is NewLogBins that panics on error; for package-level tables.
func MustLogBins(weights map[int]float64) *LogBins {
	l, err := NewLogBins(weights)
	if err != nil {
		panic(err)
	}
	return l
}

// SampleBin draws a bin index.
func (l *LogBins) SampleBin(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(l.cum, u)
	if i >= len(l.bins) {
		i = len(l.bins) - 1
	}
	return l.bins[i]
}

// Sample draws a value: a bin by weight, then log-uniform within the bin.
func (l *LogBins) Sample(rng *rand.Rand) int {
	b := l.SampleBin(rng)
	if b == 0 {
		return 1
	}
	lo, hi := float64(int(1)<<(b-1)), float64(int(1)<<b)
	v := int(math.Exp(math.Log(lo) + rng.Float64()*(math.Log(hi)-math.Log(lo))))
	if v <= int(lo) {
		v = int(lo) + 1
	}
	if v > int(hi) {
		v = int(hi)
	}
	return v
}

// binMeanValue returns E[value | bin] under log-uniform within-bin sampling:
// (hi-lo)/ln(hi/lo) = 2^(b-1)/ln 2 for b > 0.
func binMeanValue(b int) float64 {
	if b == 0 {
		return 1
	}
	return float64(int(1)<<(b-1)) / math.Ln2
}

// MeanValue returns the distribution's expected value.
func (l *LogBins) MeanValue() float64 {
	mean := 0.0
	prev := 0.0
	for i, b := range l.bins {
		mean += (l.cum[i] - prev) * binMeanValue(b)
		prev = l.cum[i]
	}
	return mean
}

// CountWeighted reinterprets a value-weighted distribution (the paper's
// figures weight bins by bytes) as a per-event distribution: sampling events
// from the result and then re-histogramming them weighted by value
// reproduces the original distribution in expectation.
func (l *LogBins) CountWeighted() *LogBins {
	w := make(map[int]float64, len(l.bins))
	for b, v := range l.weights {
		w[b] = v / binMeanValue(b)
	}
	return MustLogBins(w)
}

// CDF returns the distribution's cumulative form.
func (l *LogBins) CDF() []Point {
	out := make([]Point, len(l.bins))
	for i, b := range l.bins {
		out[i] = Point{Bin: b, Cum: l.cum[i]}
	}
	return out
}

// Weighted is a weighted chooser over items of any type.
type Weighted[T any] struct {
	items []T
	cum   []float64
}

// NewWeighted builds a chooser; weights need not be normalized.
func NewWeighted[T any](items []T, weights []float64) (*Weighted[T], error) {
	if len(items) == 0 || len(items) != len(weights) {
		return nil, fmt.Errorf("stats: bad weighted chooser: %d items, %d weights", len(items), len(weights))
	}
	total := 0.0
	for _, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("stats: negative weight")
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("stats: all-zero weights")
	}
	c := &Weighted[T]{items: items, cum: make([]float64, len(items))}
	cum := 0.0
	for i, w := range weights {
		cum += w / total
		c.cum[i] = cum
	}
	return c, nil
}

// MustWeighted is NewWeighted that panics on error.
func MustWeighted[T any](items []T, weights []float64) *Weighted[T] {
	c, err := NewWeighted(items, weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Sample draws an item.
func (c *Weighted[T]) Sample(rng *rand.Rand) T {
	u := rng.Float64()
	i := sort.SearchFloat64s(c.cum, u)
	if i >= len(c.items) {
		i = len(c.items) - 1
	}
	return c.items[i]
}

// SelectNth returns the n-th smallest element of xs (0-indexed), partially
// reordering xs in place — no second copy of the sample set, and O(len(xs))
// expected time versus a full sort's O(n log n). The pivot choice is
// deterministic (median of three), so the reordering — and therefore any
// later reduction over xs — is reproducible.
func SelectNth(xs []float64, n int) float64 {
	if n < 0 || n >= len(xs) {
		panic(fmt.Sprintf("stats: SelectNth(%d) of %d", n, len(xs)))
	}
	lo, hi := 0, len(xs)-1
	for lo < hi {
		// Median-of-three pivot: deterministic and robust against sorted or
		// constant runs (common in latency samples).
		mid := lo + (hi-lo)/2
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		// Three-way partition (Dutch national flag) collapses equal-to-pivot
		// runs in one pass, keeping degenerate inputs linear.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case xs[i] < pivot:
				xs[lt], xs[i] = xs[i], xs[lt]
				lt++
				i++
			case xs[i] > pivot:
				xs[i], xs[gt] = xs[gt], xs[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt - 1
		case n > gt:
			lo = gt + 1
		default:
			return pivot
		}
	}
	return xs[lo]
}

// P99 returns the sample used as the 99th percentile throughout the repo
// (index n*99/100 of the sorted order), selecting in place via SelectNth.
func P99(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return SelectNth(xs, min(len(xs)-1, len(xs)*99/100))
}
