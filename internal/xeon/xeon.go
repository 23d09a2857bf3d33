// Package xeon models the software baseline: one core (2 HT) of a Xeon
// E5-2686 v4 running the fleet (de)compression libraries, as the paper
// measures with lzbench (§6.1).
//
// The model is a calibrated cycles-per-byte table. Anchor points come from
// the paper's own measurements on HyperCompressBench:
//
//	Snappy compression   0.36 GB/s  → 6.39 cycles/byte at 2.3 GHz
//	Snappy decompression 1.10 GB/s  → 2.09 cycles/byte
//	ZStd   compression   0.22 GB/s  → 10.45 cycles/byte (level ≈ 3)
//	ZStd   decompression 0.94 GB/s  → 2.45 cycles/byte
//
// Level scaling for heavyweight compression follows the paper's fleet
// cost-per-byte observations (§3.3.4): ZStd at high levels costs ~2.39x the
// low levels, which themselves cost ~1.55x Snappy. Cycle counts are a
// deterministic function of the call, making experiments reproducible.
package xeon

import (
	"math"

	"cdpu/internal/comp"
)

// Clock parameters (§6.1: 2.3 GHz base, 2.7 GHz turbo; sustained
// single-core compression runs at base).
const (
	FrequencyGHz = 2.3
	// CallOverheadCycles models the fixed per-call software cost: library
	// entry, allocator touches, first-page faults amortized.
	CallOverheadCycles = 2000
)

// perByte holds the calibrated baseline cycles/byte at the algorithm's
// default level.
var perByte = map[comp.Algorithm]map[comp.Op]float64{
	comp.Snappy:  {comp.Compress: 6.39, comp.Decompress: 2.09},
	comp.ZStd:    {comp.Compress: 10.45, comp.Decompress: 2.45},
	comp.Flate:   {comp.Compress: 16.8, comp.Decompress: 4.6},
	comp.Brotli:  {comp.Compress: 13.0, comp.Decompress: 3.9},
	comp.Gipfeli: {comp.Compress: 4.6, comp.Decompress: 1.55},
	comp.LZO:     {comp.Compress: 5.2, comp.Decompress: 1.30},
}

// levelFactor scales heavyweight compression cost with level. Calibrated so
// ZStd level 19+ costs ≈2.4x level 3 (paper §3.3.4) and negative levels run
// ≈2x faster than level 3.
func levelFactor(a comp.Algorithm, op comp.Op, level int) float64 {
	if op == comp.Decompress || !a.Heavyweight() {
		return 1.0
	}
	if level == 0 {
		level = a.DefaultLevel()
	}
	d := float64(level - a.DefaultLevel())
	switch {
	case d < 0:
		// Fast levels: asymptote at ~0.45x.
		return math.Max(0.45, 1.0+d*0.11)
	default:
		// Each level above default costs ~5.6% compounding: level 19 vs 3
		// gives 1.056^16 ≈ 2.4.
		return math.Pow(1.056, d)
	}
}

// Cycles returns the modeled Xeon cycle cost of one (de)compression call
// over uncompressedBytes of payload at the given level.
func Cycles(a comp.Algorithm, op comp.Op, level int, uncompressedBytes int) float64 {
	pb, ok := perByte[a]
	if !ok {
		panic("xeon: unknown algorithm")
	}
	return CallOverheadCycles + pb[op]*levelFactor(a, op, level)*float64(uncompressedBytes)
}

// Seconds converts cycles to wall-clock seconds.
func Seconds(cycles float64) float64 {
	return cycles / (FrequencyGHz * 1e9)
}

// ThroughputGBps returns the modeled sustained throughput for large calls.
func ThroughputGBps(a comp.Algorithm, op comp.Op, level int) float64 {
	const probe = 64 << 20
	cyc := Cycles(a, op, level, probe)
	return float64(probe) / Seconds(cyc) / 1e9
}

// CostPerByte returns the asymptotic cycles/byte at a level (excluding call
// overhead), the fleet metric in §3.3.4.
func CostPerByte(a comp.Algorithm, op comp.Op, level int) float64 {
	return perByte[a][op] * levelFactor(a, op, level)
}
