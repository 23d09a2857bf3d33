package fleet

import (
	"math"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/stats"
)

const sampleN = 500000

var sharedAnalysis *Analysis

func analysis(t *testing.T) *Analysis {
	t.Helper()
	if sharedAnalysis == nil {
		sharedAnalysis = Analyze(NewModel(1).SampleCalls(sampleN))
	}
	return sharedAnalysis
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.4f, want %.4f ± %.4f", name, got, want, tol)
	}
}

// --- Ground-truth table self-consistency -------------------------------------

func TestCycleSharesNormalized(t *testing.T) {
	total := 0.0
	for _, v := range CycleShares() {
		total += v
	}
	within(t, "cycle shares sum", total, 1.0, 1e-9)
}

func TestByteSharesNormalized(t *testing.T) {
	total := 0.0
	for _, v := range ByteShares() {
		total += v
	}
	within(t, "byte shares sum", total, 1.0, 1e-9)
}

func TestDecompressionCycleShare(t *testing.T) {
	// §3.2: 56% of (de)compression cycles are decompression.
	d := 0.0
	for k, v := range CycleShares() {
		if k.Op == comp.Decompress {
			d += v
		}
	}
	within(t, "decompression cycle share", d, 0.56, 0.01)
}

func TestHeavyweightCompressionShares(t *testing.T) {
	// §3.3.1: 56% of compression cycles are heavyweight, but heavyweight
	// handles only 36% of compressed bytes.
	cs := CycleShares()
	var heavyCyc, compCyc float64
	for k, v := range cs {
		if k.Op != comp.Compress {
			continue
		}
		compCyc += v
		if k.Algo.Heavyweight() {
			heavyCyc += v
		}
	}
	within(t, "heavyweight compression cycle share", heavyCyc/compCyc, 0.56, 0.02)
	light := OpByteShares(comp.Compress)
	heavyBytes := light[comp.ZStd] + light[comp.Flate] + light[comp.Brotli]
	within(t, "heavyweight compression byte share", heavyBytes, 0.36, 0.01)
}

func TestZStdLevelGroundTruth(t *testing.T) {
	// §3.3.2: 88% of ZStd bytes at level <= 3; >95% at <= 5; <0.002% at >= 12.
	within(t, "bytes at level<=3", ZStdLevelByteFraction(-7, 3), 0.88, 0.015)
	if got := ZStdLevelByteFraction(-7, 5); got < 0.95 {
		t.Errorf("bytes at level<=5 = %.3f, want >= 0.95", got)
	}
	if got := ZStdLevelByteFraction(12, 22); got > 0.0005 {
		t.Errorf("bytes at level>=12 = %.5f, want < 0.0005", got)
	}
}

func TestCallSizeGroundTruthConstraints(t *testing.T) {
	// §3.5.1's headline facts, as ground-truth CDF properties.
	snapC := CallSizes(AlgoOp{comp.Snappy, comp.Compress})
	cum := 0.0
	for _, p := range snapC.CDF() {
		if p.Bin <= 15 {
			cum = p.Cum
		}
	}
	within(t, "snappy-C bytes <= 32KiB", cum, 0.24, 0.02)

	zstdC := CallSizes(AlgoOp{comp.ZStd, comp.Compress})
	cum = 0.0
	for _, p := range zstdC.CDF() {
		if p.Bin <= 15 {
			cum = p.Cum
		}
	}
	within(t, "zstd-C bytes <= 32KiB", cum, 0.08, 0.02)

	snapD := CallSizes(AlgoOp{comp.Snappy, comp.Decompress})
	var le17, le18 float64
	for _, p := range snapD.CDF() {
		if p.Bin <= 17 {
			le17 = p.Cum
		}
		if p.Bin <= 18 {
			le18 = p.Cum
		}
	}
	within(t, "snappy-D bytes < 128KiB", le17, 0.62, 0.02)
	within(t, "snappy-D bytes < 256KiB", le18, 0.80, 0.02)
}

func TestMedianCallSizes(t *testing.T) {
	// Compression medians in (64,128 KiB] (bin 17); ZStd decompression
	// median in (1,2 MiB] (bin 21).
	medianBin := func(l *stats.LogBins) int {
		for _, p := range l.CDF() {
			if p.Cum >= 0.5 {
				return p.Bin
			}
		}
		return -1
	}
	if got := medianBin(CallSizes(AlgoOp{comp.Snappy, comp.Compress})); got != 17 {
		t.Errorf("snappy-C median bin = %d, want 17", got)
	}
	if got := medianBin(CallSizes(AlgoOp{comp.ZStd, comp.Compress})); got != 17 {
		t.Errorf("zstd-C median bin = %d, want 17", got)
	}
	if got := medianBin(CallSizes(AlgoOp{comp.ZStd, comp.Decompress})); got != 21 {
		t.Errorf("zstd-D median bin = %d, want 21", got)
	}
}

func TestWindowGroundTruth(t *testing.T) {
	// §3.6: ~50% of ZStd compression bytes use windows <= 32 KiB; the
	// decompression median window is 1 MiB.
	wc := ZStdWindows(comp.Compress)
	cum := 0.0
	for _, p := range wc.CDF() {
		if p.Bin <= 15 {
			cum = p.Cum
		}
	}
	within(t, "zstd-C windows <= 32KiB", cum, 0.51, 0.02)
	wd := ZStdWindows(comp.Decompress)
	for _, p := range wd.CDF() {
		if p.Cum >= 0.5 {
			if p.Bin != 20 {
				t.Errorf("zstd-D median window bin = %d, want 20 (1 MiB)", p.Bin)
			}
			break
		}
	}
}

func TestLibrarySharesSumAndFileFormats(t *testing.T) {
	total, ff := 0.0, 0.0
	for _, l := range LibraryShares() {
		total += l.Percent
		if l.FileFormat {
			ff += l.Percent
		}
	}
	within(t, "library shares sum", total, 100, 0.5)
	within(t, "file-format share", ff/total, 0.492, 0.01)
}

func TestAchievedRatioRelationships(t *testing.T) {
	// §3.3.3: ZStd low-level 1.46x Snappy; high-level a further 1.35x.
	within(t, "zstd-low/snappy ratio",
		AchievedRatios["ZSTD-[-inf,3]"]/AchievedRatios["Snappy"], 1.46, 0.02)
	within(t, "zstd-high/zstd-low ratio",
		AchievedRatios["ZSTD-[4,22]"]/AchievedRatios["ZSTD-[-inf,3]"], 1.35, 0.02)
	// Figure 2c: no algorithm below 2.
	for name, r := range AchievedRatios {
		if name != "LZO" && r < 2 {
			t.Errorf("%s aggregate ratio %.2f < 2", name, r)
		}
	}
}

func TestFleetCostPerByteRelationships(t *testing.T) {
	// §3.3.4 emerges from the cycle/byte tables.
	snapC := FleetCostPerByte(AlgoOp{comp.Snappy, comp.Compress})
	zstdC := FleetCostPerByte(AlgoOp{comp.ZStd, comp.Compress})
	if r := zstdC / snapC; r < 1.4 || r > 2.1 {
		t.Errorf("zstd/snappy compression cost ratio = %.2f, want ~1.55-1.8", r)
	}
	snapD := FleetCostPerByte(AlgoOp{comp.Snappy, comp.Decompress})
	zstdD := FleetCostPerByte(AlgoOp{comp.ZStd, comp.Decompress})
	if r := zstdD / snapD; r < 1.4 || r > 2.1 {
		t.Errorf("zstd/snappy decompression cost ratio = %.2f, want ~1.63-1.8", r)
	}
}

func TestTimelineZStdRamp(t *testing.T) {
	// §3.4: ZStd 0% -> 10% of (de)compression cycles in roughly a year.
	zstdAt := func(month int) float64 {
		s := TimelineShares(month)
		return s[AlgoOp{comp.ZStd, comp.Compress}] + s[AlgoOp{comp.ZStd, comp.Decompress}]
	}
	if got := zstdAt(zstdAdoptionMonth - 1); got != 0 {
		t.Errorf("zstd share before adoption = %f", got)
	}
	within(t, "zstd share one year after adoption", zstdAt(zstdAdoptionMonth+12), 0.10, 0.02)
	final := zstdAt(TimelineMonths - 1)
	cs := CycleShares()
	want := cs[AlgoOp{comp.ZStd, comp.Compress}] + cs[AlgoOp{comp.ZStd, comp.Decompress}]
	within(t, "zstd final share", final, want, 0.02)
}

func TestTimelineAlwaysNormalized(t *testing.T) {
	for month := 0; month < TimelineMonths; month++ {
		total := 0.0
		for _, v := range TimelineShares(month) {
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("month %d shares sum to %f", month, total)
		}
	}
}

// --- Sampled pipeline reproduces ground truth --------------------------------

func TestSampledCycleSharesMatchFigure1(t *testing.T) {
	a := analysis(t)
	got := a.CycleShareByAlgoOp()
	want := CycleShares()
	for _, ao := range AllAlgoOps() {
		if want[ao] < 0.01 {
			continue // sub-1% slivers are sampling-noise dominated
		}
		within(t, "cycle share "+ao.Algo.String()+"-"+ao.Op.String(), got[ao], want[ao], 0.025)
	}
}

func TestSampledDecompressionFraction(t *testing.T) {
	within(t, "sampled decompression cycle fraction",
		analysis(t).DecompressionCycleFraction(), 0.56, 0.03)
}

func TestSampledByteShares(t *testing.T) {
	a := analysis(t)
	got := a.ByteShareByAlgoOp()
	want := ByteShares()
	for _, ao := range AllAlgoOps() {
		if want[ao] < 0.02 {
			continue
		}
		within(t, "byte share "+ao.Algo.String()+"-"+ao.Op.String(), got[ao], want[ao], 0.03)
	}
}

func TestSampledHeavyweightByteFractions(t *testing.T) {
	a := analysis(t)
	within(t, "heavyweight compression bytes", a.HeavyweightByteFraction(comp.Compress), 0.36, 0.03)
	within(t, "heavyweight decompression bytes", a.HeavyweightByteFraction(comp.Decompress), 0.49, 0.03)
}

func TestSampledDecompressionsPerByte(t *testing.T) {
	within(t, "decompressions per compressed byte",
		analysis(t).DecompressionsPerByte(), DecompressionsPerCompressedByte, 0.35)
}

func TestSampledCallSizeCDFsMatchGroundTruth(t *testing.T) {
	a := analysis(t)
	for _, ao := range []AlgoOp{
		{comp.Snappy, comp.Compress},
		{comp.ZStd, comp.Compress},
		{comp.Snappy, comp.Decompress},
		{comp.ZStd, comp.Decompress},
	} {
		// Tail bins (multi-MiB calls) are byte-heavy but call-rare, so a
		// finite sample underrepresents them — the paper observes exactly
		// this effect in HyperCompressBench's largest bins (§4.1).
		gap := stats.MaxCDFGap(a.CallSizeCDF(ao), CallSizes(ao).CDF())
		if gap > 0.12 {
			t.Errorf("%v-%v call-size CDF gap %.3f", ao.Algo, ao.Op, gap)
		}
	}
}

func TestSampledLevelDistribution(t *testing.T) {
	a := analysis(t)
	within(t, "sampled bytes at level<=3", a.ZStdLevelByteFractionAtMost(3), 0.88, 0.03)
	if got := a.ZStdLevelByteFractionAtMost(5); got < 0.92 {
		t.Errorf("sampled bytes at level<=5 = %.3f", got)
	}
}

func TestSampledLightweightOrLowLevel(t *testing.T) {
	// The headline §3.3.2 stat: >95% of compressed bytes are lightweight or
	// ZStd at level <= 3.
	// Ground truth gives 64% + 0.88*33.2% ≈ 93%; the paper reports "over
	// 95%", reachable only if Flate/Brotli bytes are negligible.
	if got := analysis(t).LightweightOrLowLevelByteFraction(); got < 0.91 {
		t.Errorf("lightweight-or-low-level fraction = %.3f, want > 0.91", got)
	}
}

func TestSampledWindows(t *testing.T) {
	a := analysis(t)
	// §3.6: about half of ZStd compression bytes use windows of at most 32 KiB.
	atMost32K := 0.0
	for _, p := range a.WindowCDF(comp.Compress) {
		if p.Bin <= 15 {
			atMost32K = p.Cum
		}
	}
	within(t, "sampled zstd-C windows <= 32KiB", atMost32K, 0.51, 0.06)
	gap := stats.MaxCDFGap(a.WindowCDF(comp.Decompress), ZStdWindows(comp.Decompress).CDF())
	if gap > 0.08 {
		t.Errorf("zstd-D window CDF gap %.3f", gap)
	}
}

func TestSampledLibraryShares(t *testing.T) {
	a := analysis(t)
	got := a.LibraryCycleShares()
	for _, l := range LibraryShares() {
		if l.Percent < 1 {
			continue
		}
		// Cycle weighting is heavy-tailed (a few multi-MiB calls dominate),
		// so per-library shares carry real sampling noise.
		within(t, "library "+l.Name, got[l.Name], l.Percent/100, 0.035)
	}
	within(t, "file-format cycle fraction", a.FileFormatCycleFraction(), 0.492, 0.035)
}

func TestSampledServiceConcentration(t *testing.T) {
	a := analysis(t)
	shares := a.ServiceCycleShares()
	top := 0.0
	for _, s := range Services()[:16] {
		top += shares[s.Name]
	}
	within(t, "top-16 service share of compression cycles", top, 0.50, 0.04)
}

func TestSampledAggregateRatios(t *testing.T) {
	a := analysis(t)
	snappy := a.AggregateRatio(func(c CallRecord) bool {
		return c.Algo == comp.Snappy && c.Op == comp.Compress
	})
	zstdLow := a.AggregateRatio(func(c CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level <= 3
	})
	zstdHigh := a.AggregateRatio(func(c CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level >= 4
	})
	within(t, "zstd-low/snappy achieved ratio", zstdLow/snappy, 1.46, 0.05)
	within(t, "zstd-high/zstd-low achieved ratio", zstdHigh/zstdLow, 1.35, 0.06)
}

func TestSampledCostPerByteRelationships(t *testing.T) {
	a := analysis(t)
	snapC := a.CostPerByte(func(c CallRecord) bool {
		return c.Algo == comp.Snappy && c.Op == comp.Compress
	})
	zstdLowC := a.CostPerByte(func(c CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level <= 3
	})
	zstdHighC := a.CostPerByte(func(c CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level >= 4
	})
	if r := zstdLowC / snapC; r < 1.3 || r > 2.2 {
		t.Errorf("sampled zstd-low/snappy compression cost = %.2f", r)
	}
	// §3.3.4: high levels cost ~2.39x low levels per byte.
	if r := zstdHighC / zstdLowC; r < 1.2 || r > 3.2 {
		t.Errorf("sampled zstd-high/zstd-low compression cost = %.2f", r)
	}
}

func TestSamplingDeterministic(t *testing.T) {
	a := NewModel(7).SampleCalls(100)
	b := NewModel(7).SampleCalls(100)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs across identical seeds", i)
		}
	}
}

// TestGroundTruthIsPure: the ground-truth tables are functions, so repeated
// calls return the same bits. Sums taken while ranging over a map are not:
// float addition depends on the order, and a map has none.
func TestGroundTruthIsPure(t *testing.T) {
	const repeats = 200
	for _, month := range []int{0, 30, 50, 70, 95} {
		first := TimelineShares(month)
		for i := 0; i < repeats; i++ {
			for k, v := range TimelineShares(month) {
				if math.Float64bits(v) != math.Float64bits(first[k]) {
					t.Fatalf("TimelineShares(%d)[%v] = %v on repeat %d, %v on the first call", month, k, v, i, first[k])
				}
			}
		}
	}
	first := ZStdLevelByteFraction(-7, 3)
	for i := 0; i < repeats; i++ {
		if got := ZStdLevelByteFraction(-7, 3); math.Float64bits(got) != math.Float64bits(first) {
			t.Fatalf("ZStdLevelByteFraction(-7, 3) = %v on repeat %d, %v on the first call", got, i, first)
		}
	}
}
