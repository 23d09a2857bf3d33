package fleet

import (
	"cdpu/internal/comp"
	"cdpu/internal/stats"
)

// Analysis recomputes the paper's Section 3 aggregates from sampled call
// records — the same pipeline the paper runs over GWP samples.
type Analysis struct {
	calls []CallRecord
}

// Analyze wraps a sample set for aggregation.
func Analyze(calls []CallRecord) *Analysis {
	return &Analysis{calls: calls}
}

// CycleShareByAlgoOp returns each algorithm/op's share of (de)compression
// cycles (Figure 1, one time slice).
func (a *Analysis) CycleShareByAlgoOp() map[AlgoOp]float64 {
	out := make(map[AlgoOp]float64)
	total := 0.0
	for _, c := range a.calls {
		out[AlgoOp{c.Algo, c.Op}] += c.Cycles
		total += c.Cycles
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// DecompressionCycleFraction returns the fraction of (de)compression cycles
// spent decompressing (§3.2: 56%).
func (a *Analysis) DecompressionCycleFraction() float64 {
	d, total := 0.0, 0.0
	for _, c := range a.calls {
		if c.Op == comp.Decompress {
			d += c.Cycles
		}
		total += c.Cycles
	}
	return d / total
}

// ByteShareByAlgoOp returns each algorithm/op's share of uncompressed bytes
// (Figure 2a).
func (a *Analysis) ByteShareByAlgoOp() map[AlgoOp]float64 {
	out := make(map[AlgoOp]float64)
	total := 0.0
	for _, c := range a.calls {
		b := float64(c.UncompressedBytes)
		out[AlgoOp{c.Algo, c.Op}] += b
		total += b
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// HeavyweightByteFraction returns the heavyweight algorithms' share of an
// op's uncompressed bytes (§3.3.1: 36% for compression, 49% decompression).
func (a *Analysis) HeavyweightByteFraction(op comp.Op) float64 {
	heavy, total := 0.0, 0.0
	for _, c := range a.calls {
		if c.Op != op {
			continue
		}
		b := float64(c.UncompressedBytes)
		if c.Algo.Heavyweight() {
			heavy += b
		}
		total += b
	}
	return heavy / total
}

// DecompressionsPerByte returns decompressed bytes divided by compressed
// bytes (§3.3.1: 3.3).
func (a *Analysis) DecompressionsPerByte() float64 {
	var compB, decompB float64
	for _, c := range a.calls {
		if c.Op == comp.Compress {
			compB += float64(c.UncompressedBytes)
		} else {
			decompB += float64(c.UncompressedBytes)
		}
	}
	return decompB / compB
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
	in, total := 0.0, 0.0
	for _, c := range a.calls {
		if c.Algo != comp.ZStd || c.Op != comp.Compress {
			continue
		}
		b := float64(c.UncompressedBytes)
		total += b
		if c.Level <= max {
			in += b
		}
	}
	if total == 0 {
		return 0
	}
	return in / total
}

// LightweightOrLowLevelByteFraction returns the key §3.3.2 insight: the
// fraction of compressed bytes handled either by a lightweight algorithm or
// by ZStd at level <= 3 (paper: over 95%).
func (a *Analysis) LightweightOrLowLevelByteFraction() float64 {
	in, total := 0.0, 0.0
	for _, c := range a.calls {
		if c.Op != comp.Compress {
			continue
		}
		b := float64(c.UncompressedBytes)
		total += b
		if !c.Algo.Heavyweight() || (c.Algo == comp.ZStd && c.Level <= 3) {
			in += b
		}
	}
	return in / total
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
func (a *Analysis) LibraryCycleShares() map[string]float64 {
	out := make(map[string]float64)
	total := 0.0
	for _, c := range a.calls {
		out[c.Library] += c.Cycles
		total += c.Cycles
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// FileFormatCycleFraction returns the share of cycles invoked by file-format
// libraries (§3.5.2: 49%).
func (a *Analysis) FileFormatCycleFraction() float64 {
	isFF := make(map[string]bool)
	for _, l := range LibraryShares() {
		isFF[l.Name] = l.FileFormat
	}
	ff, total := 0.0, 0.0
	for _, c := range a.calls {
		if isFF[c.Library] {
			ff += c.Cycles
		}
		total += c.Cycles
	}
	return ff / total
}

// ServiceCycleShares returns each service's share of (de)compression cycles.
func (a *Analysis) ServiceCycleShares() map[string]float64 {
	out := make(map[string]float64)
	total := 0.0
	for _, c := range a.calls {
		out[c.Service] += c.Cycles
		total += c.Cycles
	}
	for k := range out {
		out[k] /= total
	}
	return out
}

// AggregateRatio returns total uncompressed divided by total compressed
// bytes for calls matching the filter (Figure 2c's bars).
func (a *Analysis) AggregateRatio(match func(CallRecord) bool) float64 {
	var u, c float64
	for _, rec := range a.calls {
		if !match(rec) {
			continue
		}
		u += float64(rec.UncompressedBytes)
		c += float64(rec.CompressedBytes)
	}
	if c == 0 {
		return 0
	}
	return u / c
}

// CostPerByte returns cycles per uncompressed byte for calls matching the
// filter (§3.3.4's comparisons).
func (a *Analysis) CostPerByte(match func(CallRecord) bool) float64 {
	var cyc, b float64
	for _, rec := range a.calls {
		if !match(rec) {
			continue
		}
		cyc += rec.Cycles
		b += float64(rec.UncompressedBytes)
	}
	if b == 0 {
		return 0
	}
	return cyc / b
}
