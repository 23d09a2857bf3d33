package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"strings"
	"testing"

	"cdpu/internal/comp"
)

// pinSHA is the SHA-256 of every float64 analysisDump writes for
// NewModel(1).SampleCalls(40000). A rewrite of the aggregators must add the
// same terms in the same order, so it must leave this hash where it is.
const pinSHA = "a6527673b15b74405fcc906b9c58e366e3c4c0c835fe296ec3c2f0f560dfac5e"

// analysisDump runs every exported Analysis method and writes each float64's
// bits, with each map's keys and each CDF's bins, in a fixed order: maps by
// sorted key, scalars in declaration order, CDFs by algorithm/op.
func analysisDump(a *Analysis) (sum []byte, floats int) {
	h := sha256.New()
	word := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	f := func(v float64) { word(math.Float64bits(v)); floats++ }
	algoOps := func(m map[AlgoOp]float64) {
		keys := make([]AlgoOp, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.SortFunc(keys, func(x, y AlgoOp) int { return int(x.Algo-y.Algo)*2 + int(x.Op-y.Op) })
		word(uint64(len(keys)))
		for _, k := range keys {
			word(uint64(k.Algo)<<8 | uint64(k.Op))
			f(m[k])
		}
	}
	names := func(m map[string]float64) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		word(uint64(len(keys)))
		for _, k := range keys {
			h.Write([]byte(k + "\x00"))
			f(m[k])
		}
	}

	algoOps(a.CycleShareByAlgoOp())
	algoOps(a.ByteShareByAlgoOp())
	names(a.LibraryCycleShares())
	names(a.ServiceCycleShares())

	f(a.DecompressionCycleFraction())
	for _, op := range comp.Ops {
		f(a.HeavyweightByteFraction(op))
	}
	f(a.DecompressionsPerByte())
	for _, max := range []int{-1, 3, 5, 22} {
		f(a.ZStdLevelByteFractionAtMost(max))
	}
	f(a.LightweightOrLowLevelByteFraction())
	f(a.FileFormatCycleFraction())
	filters := []func(CallRecord) bool{
		func(c CallRecord) bool { return c.Algo == comp.Snappy && c.Op == comp.Compress },
		func(c CallRecord) bool { return c.Algo == comp.ZStd && c.Level <= 3 },
	}
	for _, match := range filters {
		f(a.AggregateRatio(match))
		f(a.CostPerByte(match))
	}

	for _, ao := range AllAlgoOps() {
		for _, p := range a.CallSizeCDF(ao) {
			word(uint64(p.Bin))
			f(p.Cum)
		}
	}
	for _, op := range comp.Ops {
		for _, p := range a.WindowCDF(op) {
			word(uint64(p.Bin))
			f(p.Cum)
		}
	}
	return h.Sum(nil), floats
}

// TestAnalysisPinned holds every Section 3 aggregate to the bits it had when
// each one was a loop of its own.
func TestAnalysisPinned(t *testing.T) {
	sum, floats := analysisDump(Analyze(NewModel(1).SampleCalls(40000)))
	if got := hex.EncodeToString(sum); got != pinSHA {
		t.Fatalf("analysis dump of %d float64s: sha256 %s, want %s", floats, got, pinSHA)
	}
}

// TestEmptyAnalysisReadsZero holds every aggregate to 0, and every share map
// and CDF to empty, where nothing is selected: no call is not a NaN.
func TestEmptyAnalysisReadsZero(t *testing.T) {
	never := func(CallRecord) bool { return false }
	scalars := func(a *Analysis) map[string]float64 {
		return map[string]float64{
			"DecompressionCycleFraction":        a.DecompressionCycleFraction(),
			"HeavyweightByteFraction(C)":        a.HeavyweightByteFraction(comp.Compress),
			"HeavyweightByteFraction(D)":        a.HeavyweightByteFraction(comp.Decompress),
			"DecompressionsPerByte":             a.DecompressionsPerByte(),
			"ZStdLevelByteFractionAtMost(3)":    a.ZStdLevelByteFractionAtMost(3),
			"LightweightOrLowLevelByteFraction": a.LightweightOrLowLevelByteFraction(),
			"FileFormatCycleFraction":           a.FileFormatCycleFraction(),
			"AggregateRatio(never)":             a.AggregateRatio(never),
			"CostPerByte(never)":                a.CostPerByte(never),
			"AggregateRatio(any)":               a.AggregateRatio(func(CallRecord) bool { return true }),
			"CostPerByte(any)":                  a.CostPerByte(func(CallRecord) bool { return true }),
			"len(CycleShareByAlgoOp)":           float64(len(a.CycleShareByAlgoOp())),
			"len(ByteShareByAlgoOp)":            float64(len(a.ByteShareByAlgoOp())),
			"len(LibraryCycleShares)":           float64(len(a.LibraryCycleShares())),
			"len(ServiceCycleShares)":           float64(len(a.ServiceCycleShares())),
			"len(CallSizeCDF(ZStd/C))":          float64(len(a.CallSizeCDF(AlgoOp{comp.ZStd, comp.Compress}))),
			"len(WindowCDF(D))":                 float64(len(a.WindowCDF(comp.Decompress))),
		}
	}
	for name, v := range scalars(Analyze(nil)) {
		if v != 0 {
			t.Errorf("Analyze(nil).%s = %v, want 0", name, v)
		}
	}

	// One call of no bytes and no cycles: its key is present at share 0.
	zero := Analyze([]CallRecord{{Algo: comp.ZStd, Op: comp.Compress, Library: "lib", Service: "svc"}})
	for name, v := range scalars(zero) {
		if v != 0 && !strings.HasPrefix(name, "len(") {
			t.Errorf("one zero-weight call: %s = %v, want 0", name, v)
		}
	}
	for _, m := range []map[AlgoOp]float64{zero.CycleShareByAlgoOp(), zero.ByteShareByAlgoOp()} {
		if v, ok := m[AlgoOp{comp.ZStd, comp.Compress}]; !ok || v != 0 {
			t.Errorf("one zero-weight call: ZStd-C share %v (present %v), want 0", v, ok)
		}
	}
	for _, m := range []map[string]float64{zero.LibraryCycleShares(), zero.ServiceCycleShares()} {
		for k, v := range m {
			if v != 0 {
				t.Errorf("one zero-weight call: %s share %v, want 0", k, v)
			}
		}
	}

	// Snappy decompressions only: every compression-side selection is empty.
	var calls []CallRecord
	for _, c := range NewModel(1).SampleCalls(4000) {
		if c.Algo == comp.Snappy && c.Op == comp.Decompress {
			calls = append(calls, c)
		}
	}
	a := Analyze(calls)
	got := scalars(a)
	for _, name := range []string{"HeavyweightByteFraction(C)", "DecompressionsPerByte", "ZStdLevelByteFractionAtMost(3)",
		"LightweightOrLowLevelByteFraction", "AggregateRatio(never)", "CostPerByte(never)", "len(CallSizeCDF(ZStd/C))",
		"len(WindowCDF(D))"} {
		if got[name] != 0 {
			t.Errorf("%d Snappy decompressions: %s = %v, want 0", len(calls), name, got[name])
		}
	}
	if got["HeavyweightByteFraction(D)"] != 0 || got["DecompressionCycleFraction"] != 1 {
		t.Errorf("%d Snappy decompressions: heavyweight share %v, decompression cycle share %v, want 0 and 1",
			len(calls), got["HeavyweightByteFraction(D)"], got["DecompressionCycleFraction"])
	}
}
