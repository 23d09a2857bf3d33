package exp

import (
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fleet"
	"cdpu/internal/stats"
)

func fleetAnalysis(cfg Config) *fleet.Analysis {
	return fleet.Analyze(fleet.NewModel(cfg.Seed).SampleCalls(cfg.FleetSamples))
}

func runFig1(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "Figure 1: % of fleet (de)compression cycles by algorithm, per half-year",
		Note:  "Ground-truth timeline (synthetic fleet); final slice matches the paper's legend.",
	}
	aos := fleet.AllAlgoOps()
	t.Columns = []string{"month"}
	for _, ao := range aos {
		t.Columns = append(t.Columns, fmt.Sprintf("%v-%v", ao.Op, ao.Algo))
	}
	for month := 0; month < fleet.TimelineMonths; month += 6 {
		shares := fleet.TimelineShares(month)
		row := []string{fmt.Sprintf("Y%d-%02d", month/12+1, month%12+1)}
		for _, ao := range aos {
			row = append(row, pct(shares[ao]))
		}
		t.AddRow(row...)
	}
	final := fleet.TimelineShares(fleet.TimelineMonths - 1)
	row := []string{"final"}
	for _, ao := range aos {
		row = append(row, pct(final[ao]))
	}
	t.AddRow(row...)
	return []*Table{t}, nil
}

func runFig2a(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	t := &Table{
		Title:   "Figure 2a: % of fleet uncompressed bytes handled, by algorithm/op",
		Note:    "Sampled via the GWP-style pipeline; 'target' is the calibrated ground truth.",
		Columns: []string{"algo-op", "sampled", "target"},
	}
	want := fleet.ByteShares()
	got := a.ByteShareByAlgoOp()
	for _, ao := range fleet.AllAlgoOps() {
		t.AddRow(fmt.Sprintf("%v-%v", ao.Op, ao.Algo), pct(got[ao]), pct(want[ao]))
	}
	t.AddRow("heavyweight-C", pct(a.HeavyweightByteFraction(comp.Compress)), "36.0%")
	t.AddRow("heavyweight-D", pct(a.HeavyweightByteFraction(comp.Decompress)), "49.0%")
	t.AddRow("decomp/comp bytes", f2(a.DecompressionsPerByte()), "3.30")
	return []*Table{t}, nil
}

func runFig2b(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	t := &Table{
		Title:   "Figure 2b: % of ZStd-compressed bytes by compression level (cumulative)",
		Columns: []string{"level<=", "sampled", "target"},
	}
	for _, lvl := range []int{-1, 1, 2, 3, 4, 5, 8, 11, 22} {
		t.AddRow(fmt.Sprintf("%d", lvl),
			pct(a.ZStdLevelByteFractionAtMost(lvl)),
			pct(fleet.ZStdLevelByteFraction(-7, lvl)))
	}
	t.AddRow("lightweight-or-level<=3", pct(a.LightweightOrLowLevelByteFraction()), ">95% (paper)")
	return []*Table{t}, nil
}

func runFig2c(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	t := &Table{
		Title:   "Figure 2c: aggregate fleet compression ratio by algorithm/level bin",
		Columns: []string{"bin", "sampled-ratio", "target"},
	}
	bins := []struct {
		name  string
		match func(fleet.CallRecord) bool
	}{
		{"Flate-All", func(c fleet.CallRecord) bool { return c.Algo == comp.Flate && c.Op == comp.Compress }},
		{"ZSTD-[4,22]", func(c fleet.CallRecord) bool {
			return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level >= 4
		}},
		{"ZSTD-[-inf,3]", func(c fleet.CallRecord) bool {
			return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level <= 3
		}},
		{"Snappy", func(c fleet.CallRecord) bool { return c.Algo == comp.Snappy && c.Op == comp.Compress }},
		{"Brotli-All", func(c fleet.CallRecord) bool { return c.Algo == comp.Brotli && c.Op == comp.Compress }},
	}
	for _, b := range bins {
		t.AddRow(b.name, f2(a.AggregateRatio(b.match)), f2(fleet.AchievedRatios[b.name]))
	}
	return []*Table{t}, nil
}

func cdfTable(title string, sampled, target []stats.Point) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"ceil(lg2(B))", "sampled-cum", "target-cum"},
	}
	at := func(cdf []stats.Point, bin int) float64 {
		v := 0.0
		for _, p := range cdf {
			if p.Bin > bin {
				break
			}
			v = p.Cum
		}
		return v
	}
	bins := map[int]bool{}
	for _, p := range sampled {
		bins[p.Bin] = true
	}
	for _, p := range target {
		bins[p.Bin] = true
	}
	lo, hi := 99, 0
	for b := range bins {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	for b := lo; b <= hi; b++ {
		t.AddRow(fmt.Sprintf("%d", b), pct(at(sampled, b)), pct(at(target, b)))
	}
	return t
}

func runFig3(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	var out []*Table
	for _, ao := range []fleet.AlgoOp{
		{Algo: comp.Snappy, Op: comp.Compress},
		{Algo: comp.ZStd, Op: comp.Compress},
		{Algo: comp.Snappy, Op: comp.Decompress},
		{Algo: comp.ZStd, Op: comp.Decompress},
	} {
		title := fmt.Sprintf("Figure 3: %v-%v call-size CDF (bytes-weighted)", ao.Algo, ao.Op)
		out = append(out, cdfTable(title, a.CallSizeCDF(ao), fleet.CallSizes(ao).CDF()))
	}
	return out, nil
}

func runFig4(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	t := &Table{
		Title:   "Figure 4: % of fleet (de)compression cycles by calling library",
		Columns: []string{"library", "sampled", "target"},
	}
	got := a.LibraryCycleShares()
	for _, l := range fleet.LibraryShares() {
		t.AddRow(l.Name, pct(got[l.Name]), pct(l.Percent/100))
	}
	t.AddRow("file-formats-total", pct(a.FileFormatCycleFraction()), "49.2%")
	return []*Table{t}, nil
}

func runFig5(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	var out []*Table
	for _, op := range comp.Ops {
		title := fmt.Sprintf("Figure 5: ZStd-%v window-size CDF (bytes-weighted)", op)
		out = append(out, cdfTable(title, a.WindowCDF(op), fleet.ZStdWindows(op).CDF()))
	}
	return out, nil
}

func runFig6(cfg Config) ([]*Table, error) {
	var h stats.Hist
	for _, n := range corpus.StandardSizes() {
		h.Add(n, float64(n))
	}
	t := cdfTable("Figure 6: open-source benchmark call-size CDF (whole files)", h.CDF(), nil)
	fleetBin := 0
	for _, p := range fleet.CallSizes(fleet.AlgoOp{Algo: comp.Snappy, Op: comp.Compress}).CDF() {
		if p.Cum >= 0.5 {
			fleetBin = p.Bin
			break
		}
	}
	gap := h.MedianBin() - fleetBin
	t.Note = fmt.Sprintf(
		"median bin %d vs fleet Snappy-C median bin %d: open benchmarks' median call is %dx the fleet's (paper: 256x on full-size Silesia/Canterbury/Calgary; this corpus is size-scaled for runtime)",
		h.MedianBin(), fleetBin, 1<<gap)
	return []*Table{t}, nil
}

func runFleetSummary(cfg Config) ([]*Table, error) {
	a := fleetAnalysis(cfg)
	t := &Table{
		Title:   "Section 3 headline statistics (sampled vs paper)",
		Columns: []string{"statistic", "measured", "paper"},
	}
	t.AddRow("fleet cycles in (de)compression", pct(fleet.FleetCompressionCycleFraction), "2.9%")
	t.AddRow("decompression share of those cycles", pct(a.DecompressionCycleFraction()), "56%")
	t.AddRow("decompressions per compressed byte", f2(a.DecompressionsPerByte()), "3.3")
	t.AddRow("heavyweight compression cycle share", pct(heavyCycleShare(a, comp.Compress)), "56%")
	t.AddRow("heavyweight compression byte share", pct(a.HeavyweightByteFraction(comp.Compress)), "36%")
	t.AddRow("heavyweight decompression byte share", pct(a.HeavyweightByteFraction(comp.Decompress)), "49%")
	t.AddRow("ZStd bytes at level<=3", pct(a.ZStdLevelByteFractionAtMost(3)), "88%")
	t.AddRow("ZStd bytes at level<=5", pct(a.ZStdLevelByteFractionAtMost(5)), ">95%")
	t.AddRow("lightweight-or-low-level compressed bytes", pct(a.LightweightOrLowLevelByteFraction()), ">95%")

	snappyRatio := a.AggregateRatio(func(c fleet.CallRecord) bool {
		return c.Algo == comp.Snappy && c.Op == comp.Compress
	})
	zstdLow := a.AggregateRatio(func(c fleet.CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level <= 3
	})
	zstdHigh := a.AggregateRatio(func(c fleet.CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level >= 4
	})
	t.AddRow("ratio: ZStd-low vs Snappy", f2(zstdLow/snappyRatio)+"x", "1.46x")
	t.AddRow("ratio: ZStd-high vs ZStd-low", f2(zstdHigh/zstdLow)+"x", "1.35x")

	snapCost := a.CostPerByte(func(c fleet.CallRecord) bool {
		return c.Algo == comp.Snappy && c.Op == comp.Compress
	})
	zstdLowCost := a.CostPerByte(func(c fleet.CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level <= 3
	})
	zstdHighCost := a.CostPerByte(func(c fleet.CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Compress && c.Level >= 4
	})
	snapDCost := a.CostPerByte(func(c fleet.CallRecord) bool {
		return c.Algo == comp.Snappy && c.Op == comp.Decompress
	})
	zstdDCost := a.CostPerByte(func(c fleet.CallRecord) bool {
		return c.Algo == comp.ZStd && c.Op == comp.Decompress
	})
	t.AddRow("cost/B: ZStd-low vs Snappy compression", f2(zstdLowCost/snapCost)+"x", "1.55x")
	t.AddRow("cost/B: ZStd-high vs ZStd-low compression", f2(zstdHighCost/zstdLowCost)+"x", "2.39x")
	t.AddRow("cost/B: ZStd vs Snappy decompression", f2(zstdDCost/snapDCost)+"x", "1.63x")
	t.AddRow("file-format libraries' cycle share", pct(a.FileFormatCycleFraction()), "49.2%")

	top16 := 0.0
	shares := a.ServiceCycleShares()
	for _, s := range fleet.Services()[:16] {
		top16 += shares[s.Name]
	}
	t.AddRow("top-16 services' share of (de)comp cycles", pct(top16), "~50%")
	return []*Table{t}, nil
}

func heavyCycleShare(a *fleet.Analysis, op comp.Op) float64 {
	shares := a.CycleShareByAlgoOp()
	heavy, total := 0.0, 0.0
	for _, ao := range fleet.AllAlgoOps() { // fixed order: float sums must be reproducible
		if ao.Op != op {
			continue
		}
		total += shares[ao]
		if ao.Algo.Heavyweight() {
			heavy += shares[ao]
		}
	}
	return heavy / total
}
