package fleet

import (
	"cdpu/internal/comp"
	"cdpu/internal/stats"
)

// Analysis recomputes the paper's Section 3 aggregates from sampled call
// records — the same pipeline the paper runs over GWP samples.
//
// Every aggregate is one of two primitives: a filtered ratio (ratio) or each
// key's share of a weight (shares). Both sum in call order, and both read 0,
// never NaN, where nothing is selected.
type Analysis struct {
	calls []CallRecord
}

// Analyze wraps a sample set for aggregation.
func Analyze(calls []CallRecord) *Analysis {
	return &Analysis{calls: calls}
}

// The quantities and selections the aggregates are written in (size: uncompressed bytes).
func cycles(c CallRecord) float64     { return c.Cycles }
func size(c CallRecord) float64       { return float64(c.UncompressedBytes) }
func compressed(c CallRecord) float64 { return float64(c.CompressedBytes) }
func algoOp(c CallRecord) AlgoOp      { return AlgoOp{c.Algo, c.Op} }
func library(c CallRecord) string     { return c.Library }
func service(c CallRecord) string     { return c.Service }
func all(CallRecord) bool             { return true }
func heavy(c CallRecord) bool         { return c.Algo.Heavyweight() }

func isOp(op comp.Op) func(CallRecord) bool {
	return func(c CallRecord) bool { return c.Op == op }
}

// when is f on the calls keep selects and +0 on the rest; adding +0 leaves a
// float64 sum of non-negative terms unchanged, so a ratio's numerator can
// select a subset of its denominator's calls without moving a bit.
func when(keep func(CallRecord) bool, f func(CallRecord) float64) func(CallRecord) float64 {
	return func(c CallRecord) float64 {
		if keep(c) {
			return f(c)
		}
		return 0
	}
}

// ratio sums num and den in call order over the calls sel selects and returns
// their quotient, or 0 when den sums to 0.
func (a *Analysis) ratio(sel func(CallRecord) bool, num, den func(CallRecord) float64) float64 {
	var n, d float64
	for _, c := range a.calls {
		if sel(c) {
			n += num(c)
			d += den(c)
		}
	}
	if d == 0 {
		return 0
	}
	return n / d
}

// shares returns each key's share of the calls' total weight; with no weight
// at all every key's share is 0.
func shares[K comparable](calls []CallRecord, key func(CallRecord) K, weight func(CallRecord) float64) map[K]float64 {
	out := make(map[K]float64)
	total := 0.0
	for _, c := range calls {
		w := weight(c)
		out[key(c)] += w
		total += w
	}
	if total == 0 {
		return out
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// CycleShareByAlgoOp returns each algorithm/op's share of (de)compression
// cycles (Figure 1, one time slice).
func (a *Analysis) CycleShareByAlgoOp() map[AlgoOp]float64 { return shares(a.calls, algoOp, cycles) }

// DecompressionCycleFraction returns the fraction of (de)compression cycles
// spent decompressing (§3.2: 56%).
func (a *Analysis) DecompressionCycleFraction() float64 {
	return a.ratio(all, when(isOp(comp.Decompress), cycles), cycles)
}

// ByteShareByAlgoOp returns each algorithm/op's share of uncompressed bytes
// (Figure 2a).
func (a *Analysis) ByteShareByAlgoOp() map[AlgoOp]float64 { return shares(a.calls, algoOp, size) }

// HeavyweightByteFraction returns the heavyweight algorithms' share of an
// op's uncompressed bytes (§3.3.1: 36% for compression, 49% decompression).
func (a *Analysis) HeavyweightByteFraction(op comp.Op) float64 {
	return a.ratio(isOp(op), when(heavy, size), size)
}

// DecompressionsPerByte returns decompressed bytes divided by compressed
// bytes (§3.3.1: 3.3).
func (a *Analysis) DecompressionsPerByte() float64 {
	return a.ratio(all, when(isOp(comp.Decompress), size), when(isOp(comp.Compress), size))
}

// CallSizeCDF returns the byte-weighted call-size CDF for an algorithm/op
// (Figure 3).
func (a *Analysis) CallSizeCDF(ao AlgoOp) []stats.Point {
	var h stats.Hist
	for _, c := range a.calls {
		if c.Algo == ao.Algo && c.Op == ao.Op && c.UncompressedBytes > 0 {
			h.Add(c.UncompressedBytes, float64(c.UncompressedBytes))
		}
	}
	return h.CDF()
}

// ZStdLevelByteFractionAtMost returns the fraction of ZStd-compressed bytes
// at levels <= max (Figure 2b; §3.3.2: 88% at <=3, 95% at <=5).
func (a *Analysis) ZStdLevelByteFractionAtMost(max int) float64 {
	zstdC := func(c CallRecord) bool { return c.Algo == comp.ZStd && c.Op == comp.Compress }
	return a.ratio(zstdC, when(func(c CallRecord) bool { return c.Level <= max }, size), size)
}

// LightweightOrLowLevelByteFraction returns the key §3.3.2 insight: the
// fraction of compressed bytes handled either by a lightweight algorithm or
// by ZStd at level <= 3 (paper: over 95%).
func (a *Analysis) LightweightOrLowLevelByteFraction() float64 {
	light := func(c CallRecord) bool { return !heavy(c) || (c.Algo == comp.ZStd && c.Level <= 3) }
	return a.ratio(isOp(comp.Compress), when(light, size), size)
}

// WindowCDF returns the byte-weighted ZStd window-size CDF (Figure 5).
func (a *Analysis) WindowCDF(op comp.Op) []stats.Point {
	var h stats.Hist
	for _, c := range a.calls {
		if c.Algo == comp.ZStd && c.Op == op {
			h.AddBin(c.WindowLog, float64(c.UncompressedBytes))
		}
	}
	return h.CDF()
}

// LibraryCycleShares returns each calling library's share of
// (de)compression cycles (Figure 4).
func (a *Analysis) LibraryCycleShares() map[string]float64 { return shares(a.calls, library, cycles) }

// FileFormatCycleFraction returns the share of cycles invoked by file-format
// libraries (§3.5.2: 49%).
func (a *Analysis) FileFormatCycleFraction() float64 {
	isFF := make(map[string]bool)
	for _, l := range LibraryShares() {
		isFF[l.Name] = l.FileFormat
	}
	return a.ratio(all, when(func(c CallRecord) bool { return isFF[c.Library] }, cycles), cycles)
}

// ServiceCycleShares returns each service's share of (de)compression cycles.
func (a *Analysis) ServiceCycleShares() map[string]float64 { return shares(a.calls, service, cycles) }

// AggregateRatio returns total uncompressed divided by total compressed
// bytes for calls matching the filter (Figure 2c's bars).
func (a *Analysis) AggregateRatio(match func(CallRecord) bool) float64 {
	return a.ratio(match, size, compressed)
}

// CostPerByte returns cycles per uncompressed byte for calls matching the
// filter (§3.3.4's comparisons).
func (a *Analysis) CostPerByte(match func(CallRecord) bool) float64 {
	return a.ratio(match, cycles, size)
}
