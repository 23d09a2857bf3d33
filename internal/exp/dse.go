package exp

import (
	"fmt"
	"sync"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fleet"
	"cdpu/internal/hcbench"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/xeon"
)

func init() {
	register(Experiment{ID: "fig7", Title: "HyperCompressBench call-size validation", Run: runFig7})
	register(Experiment{ID: "fig11", Title: "Snappy decompression DSE: SRAM x placement", Run: runFig11})
	register(Experiment{ID: "fig12", Title: "Snappy compression DSE: SRAM x placement (HT14)", Run: runFig12})
	register(Experiment{ID: "fig13", Title: "Snappy compression DSE: SRAM x placement (HT9)", Run: runFig13})
	register(Experiment{ID: "fig14", Title: "ZStd decompression DSE: SRAM x placement + speculation", Run: runFig14})
	register(Experiment{ID: "fig15", Title: "ZStd compression DSE: SRAM x placement (HT14)", Run: runFig15})
	register(Experiment{ID: "dse-summary", Title: "Section 6.6 design-space summary", Run: runDSESummary})
	register(Experiment{ID: "ablation-hash", Title: "Ablation: hash function and associativity", Run: runAblationHash})
	register(Experiment{ID: "ablation-fse", Title: "Ablation: FSE table accuracy", Run: runAblationFSE})
	register(Experiment{ID: "ablation-stats", Title: "Ablation: symbol-stats width", Run: runAblationStats})
}

// sramSweep is the Figures 11-15 x-axis.
var sramSweep = []int{64 << 10, 32 << 10, 16 << 10, 8 << 10, 4 << 10, 2 << 10}

func sramLabel(b int) string { return fmt.Sprintf("%dK", b>>10) }

// suite caching: pool construction and assembly dominate experiment setup,
// and the four suites are shared by several experiments. The memoMaps make
// the caches safe (and deduplicated) under concurrent experiment execution;
// unlike the config-run memo they are worker-count independent, so they
// survive SetWorkers.
var (
	suiteMemo   = memoMap[*hcbench.Suite]{obsHits: metricSuiteCacheHits, obsMisses: metricSuiteCacheMisses}
	compMemo    = memoMap[*compressedSuite]{obsHits: metricSuiteCacheHits, obsMisses: metricSuiteCacheMisses}
	swRatioMemo = memoMap[float64]{obsHits: metricSuiteCacheHits, obsMisses: metricSuiteCacheMisses}

	suiteKeysMu sync.Mutex
	suiteKeys   = map[*hcbench.Suite]string{}
)

// suiteKey returns the identity string under which a suite was generated.
// Suites not minted by getSuite fall back to pointer identity, which is
// stable for the life of the process.
func suiteKey(s *hcbench.Suite) string {
	suiteKeysMu.Lock()
	defer suiteKeysMu.Unlock()
	if k, ok := suiteKeys[s]; ok {
		return k
	}
	return fmt.Sprintf("%p", s)
}

func getSuite(cfg Config, algo comp.Algorithm, op comp.Op) (*hcbench.Suite, error) {
	key := fmt.Sprintf("%v-%v-%d-%d-%d", algo, op, cfg.SuiteFiles, cfg.MaxFileBytes, cfg.Seed)
	return suiteMemo.do(key, func() (*hcbench.Suite, error) {
		s, err := hcbench.Generate(hcbench.Spec{
			Algo: algo, Op: op, N: cfg.SuiteFiles,
			MaxFileBytes: cfg.MaxFileBytes, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		suiteKeysMu.Lock()
		suiteKeys[s] = key
		suiteKeysMu.Unlock()
		return s, nil
	})
}

// compressedSuite holds a decompression workload: each benchmark file
// compressed in software with its recorded parameters.
type compressedSuite struct {
	key        string
	suite      *hcbench.Suite
	compressed [][]byte
	xeonCycles float64 // total Xeon decompression cycles over the suite
}

func getCompressedSuite(cfg Config, algo comp.Algorithm) (*compressedSuite, error) {
	key := fmt.Sprintf("%v-%d-%d-%d", algo, cfg.SuiteFiles, cfg.MaxFileBytes, cfg.Seed)
	return compMemo.do(key, func() (*compressedSuite, error) {
		suite, err := getSuite(cfg, algo, comp.Decompress)
		if err != nil {
			return nil, err
		}
		cs := &compressedSuite{key: key, suite: suite}
		cs.compressed = make([][]byte, len(suite.Files))
		// Software compression of the suite is embarrassingly parallel (every
		// call builds its own encoder), so it runs on the shared pool; the
		// Xeon-cycle total is reduced in file order below.
		err = current().parallelFiles(len(suite.Files), func(i int) error {
			f := suite.Files[i]
			// Full fleet-sampled window logs: frames may carry offsets far
			// beyond any on-accelerator SRAM, exercising the off-chip history
			// fallback exactly as §3.6 argues.
			enc, err := comp.CompressCall(f.Algo, f.Level, f.WindowLog, f.Data)
			if err != nil {
				return err
			}
			cs.compressed[i] = enc
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, f := range suite.Files {
			cs.xeonCycles += xeon.Cycles(algo, comp.Decompress, f.Level, len(f.Data))
		}
		return cs, nil
	})
}

// xeonSeconds converts Xeon cycles to seconds at the Xeon clock.
func xeonSeconds(cycles float64) float64 { return xeon.Seconds(cycles) }

// cyclesPerUs converts CDPU cycles to microseconds at the SoC clock.
const cyclesPerUs = memsys.DeviceGHz * 1e3

// cdpuSeconds converts CDPU cycles to seconds at the SoC clock.
func cdpuSeconds(cycles float64) float64 { return cycles / (memsys.DeviceGHz * 1e9) }

// runDecompConfig runs a decompression suite through one CDPU configuration
// on the shared scheduler, returning total accelerator cycles. Repeat runs of
// a canonically equal config are served from the memo.
func runDecompConfig(cs *compressedSuite, cfg core.Config) (float64, error) {
	return current().decompConfig(cs, cfg)
}

// runCompConfig runs a compression suite through one CDPU configuration on
// the shared scheduler, returning total cycles and the achieved aggregate
// ratio. Repeat runs of a canonically equal config are served from the memo.
func runCompConfig(suite *hcbench.Suite, cfg core.Config) (cycles, ratio float64, err error) {
	return current().compConfig(suite, cfg)
}

// softwareRatio computes the suite-aggregate software compression ratio.
func softwareRatio(cfg Config, suite *hcbench.Suite) (float64, error) {
	return swRatioMemo.do(suiteKey(suite), func() (float64, error) {
		return suite.MeasuredAggregateRatio()
	})
}

func runFig7(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	var out []*Table
	summary := &Table{
		Title:   "Figure 7: HyperCompressBench vs fleet call-size distributions",
		Note:    "Gap is the max CDF distance below the file-size cap; the paper notes the largest bins are undersampled by construction.",
		Columns: []string{"suite", "files", "total-MB", "max-CDF-gap(<=cap)", "aggregate-ratio"},
	}
	for _, ao := range []fleet.AlgoOp{
		{Algo: comp.Snappy, Op: comp.Compress},
		{Algo: comp.ZStd, Op: comp.Compress},
		{Algo: comp.Snappy, Op: comp.Decompress},
		{Algo: comp.ZStd, Op: comp.Decompress},
	} {
		s, err := getSuite(cfg, ao.Algo, ao.Op)
		if err != nil {
			return nil, err
		}
		capBin := 0
		for b := 0; (1 << b) <= cfg.MaxFileBytes; b++ {
			capBin = b
		}
		ratio, err := softwareRatio(cfg, s)
		if err != nil {
			return nil, err
		}
		summary.AddRow(
			fmt.Sprintf("%v-%v", ao.Algo, ao.Op),
			fmt.Sprintf("%d", len(s.Files)),
			f1(float64(s.TotalUncompressedBytes())/1e6),
			f3(s.FleetCDFGap(capBin-1)),
			f2(ratio),
		)
		out = append(out, cdfTable(
			fmt.Sprintf("Figure 7: %v-%v HCB call-size CDF", ao.Algo, ao.Op),
			s.CallSizeCDF(), fleet.CallSizes(ao).CDF()))
	}
	return append([]*Table{summary}, out...), nil
}

// decompSweepTable runs the Figure 11/14 shape: speedup vs Xeon across SRAM
// sizes and placements, plus normalized area. The whole (SRAM x placement)
// grid is flattened into one batch on the shared pool — no barrier between
// cells — and rows are rendered afterwards in sweep order, so the table is
// identical at any worker count.
func decompSweepTable(cfg Config, algo comp.Algorithm, title string, speculation int) (*Table, error) {
	cs, err := getCompressedSuite(cfg, algo)
	if err != nil {
		return nil, err
	}
	xeonS := xeonSeconds(cs.xeonCycles)
	cells := make([][]float64, len(sramSweep))
	var fns []func() error
	for si, sram := range sramSweep {
		cells[si] = make([]float64, len(memsys.Placements))
		for pi, p := range memsys.Placements {
			c := core.Config{Algo: algo, Placement: p, HistorySRAM: sram, Speculation: speculation}
			fns = append(fns, func() error {
				cyc, err := runDecompConfig(cs, c)
				if err == nil {
					cells[si][pi] = cyc
				}
				return err
			})
		}
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	t := &Table{
		Title:   title,
		Note:    fmt.Sprintf("Suite: %d files, %.1f MB uncompressed; speedup = Xeon time / CDPU time.", len(cs.suite.Files), float64(cs.suite.TotalUncompressedBytes())/1e6),
		Columns: []string{"SRAM", "RoCC", "Chiplet", "PCIeLocalCache", "PCIeNoCache", "area-mm2", "area-vs-64K"},
	}
	base := 0.0
	for si, sram := range sramSweep {
		row := []string{sramLabel(sram)}
		for pi := range memsys.Placements {
			row = append(row, f2(xeonS/cdpuSeconds(cells[si][pi]))+"x")
		}
		d, err := core.NewDecompressor(core.Config{Algo: algo, Placement: memsys.RoCC, HistorySRAM: sram, Speculation: speculation})
		if err != nil {
			return nil, err
		}
		areaTotal := d.Area().Total()
		if base == 0 {
			base = areaTotal
		}
		row = append(row, f3(areaTotal), f3(areaTotal/base))
		t.AddRow(row...)
	}
	return t, nil
}

func runFig11(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t, err := decompSweepTable(cfg, comp.Snappy,
		"Figure 11: Snappy decompression speedup vs Xeon (by SRAM size and placement)", 0)
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

// compSweepTable runs the Figure 12/13/15 shape, flattened onto the shared
// pool like decompSweepTable.
func compSweepTable(cfg Config, algo comp.Algorithm, hashEntries int, title string) (*Table, error) {
	suite, err := getSuite(cfg, algo, comp.Compress)
	if err != nil {
		return nil, err
	}
	swRatio, err := softwareRatio(cfg, suite)
	if err != nil {
		return nil, err
	}
	var xeonCyc float64
	for _, f := range suite.Files {
		xeonCyc += xeon.Cycles(algo, comp.Compress, f.Level, len(f.Data))
	}
	xeonS := xeonSeconds(xeonCyc)
	compPlacements := []memsys.Placement{memsys.RoCC, memsys.Chiplet, memsys.PCIeNoCache}
	type cell struct{ cycles, ratio float64 }
	cells := make([][]cell, len(sramSweep))
	var fns []func() error
	for si, sram := range sramSweep {
		cells[si] = make([]cell, len(compPlacements))
		for pi, p := range compPlacements {
			c := core.Config{Algo: algo, Placement: p, HistorySRAM: sram, HashTableEntries: hashEntries}
			fns = append(fns, func() error {
				cyc, ratio, err := runCompConfig(suite, c)
				if err == nil {
					cells[si][pi] = cell{cycles: cyc, ratio: ratio}
				}
				return err
			})
		}
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	t := &Table{
		Title: title,
		Note: fmt.Sprintf("Suite: %d files, %.1f MB; ratio normalized to software's %.2f. Area normalized to the 64K/HT14 instance.",
			len(suite.Files), float64(suite.TotalUncompressedBytes())/1e6, swRatio),
		Columns: []string{"SRAM", "RoCC", "Chiplet", "PCIeNoCache", "ratio-vs-SW", "area-mm2", "area-vs-64K14HT"},
	}
	// Area normalizer: the full-size HT14 instance.
	full, err := core.NewCompressor(core.Config{Algo: algo, HistorySRAM: 64 << 10, HashTableEntries: 1 << 14})
	if err != nil {
		return nil, err
	}
	baseArea := full.Area().Total()
	for si, sram := range sramSweep {
		row := []string{sramLabel(sram)}
		for pi := range compPlacements {
			row = append(row, f2(xeonS/cdpuSeconds(cells[si][pi].cycles))+"x")
		}
		hwRatio := cells[si][0].ratio // RoCC cell
		cc, err := core.NewCompressor(core.Config{Algo: algo, Placement: memsys.RoCC, HistorySRAM: sram, HashTableEntries: hashEntries})
		if err != nil {
			return nil, err
		}
		areaTotal := cc.Area().Total()
		row = append(row, f3(hwRatio/swRatio), f3(areaTotal), f3(areaTotal/baseArea))
		t.AddRow(row...)
	}
	return t, nil
}

func runFig12(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t, err := compSweepTable(cfg, comp.Snappy, 1<<14,
		"Figure 12: Snappy compression speedup/ratio/area (HT=2^14)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func runFig13(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t, err := compSweepTable(cfg, comp.Snappy, 1<<9,
		"Figure 13: Snappy compression speedup/ratio/area (HT=2^9)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func runFig14(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t, err := decompSweepTable(cfg, comp.ZStd,
		"Figure 14: ZStd decompression speedup vs Xeon (by SRAM size and placement, spec=16)", 16)
	if err != nil {
		return nil, err
	}
	// Speculation sweep at 64K (the paper's §6.4 text numbers). Areas are
	// computed in the same pass as the cycle runs; the spec=16 instance
	// normalizes the last column.
	cs, err := getCompressedSuite(cfg, comp.ZStd)
	if err != nil {
		return nil, err
	}
	xeonS := xeonSeconds(cs.xeonCycles)
	spec := &Table{
		Title:   "Figure 14 (text): ZStd decompression Huffman speculation sweep at 64K SRAM",
		Columns: []string{"speculation", "speedup-vs-Xeon", "area-mm2", "area-vs-spec16"},
	}
	specs := []int{4, 16, 32}
	cycles := make([]float64, len(specs))
	areas := make([]float64, len(specs))
	base := 0.0
	var fns []func() error
	for i, s := range specs {
		c := core.Config{Algo: comp.ZStd, HistorySRAM: 64 << 10, Speculation: s}
		d, err := core.NewDecompressor(c)
		if err != nil {
			return nil, err
		}
		areas[i] = d.Area().Total()
		if s == 16 {
			base = areas[i]
		}
		fns = append(fns, func() error {
			cyc, err := runDecompConfig(cs, c)
			if err == nil {
				cycles[i] = cyc
			}
			return err
		})
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	for i, s := range specs {
		spec.AddRow(fmt.Sprintf("%d", s), f2(xeonS/cdpuSeconds(cycles[i]))+"x", f3(areas[i]), f3(areas[i]/base))
	}
	return []*Table{t, spec}, nil
}

func runFig15(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t, err := compSweepTable(cfg, comp.ZStd, 1<<14,
		"Figure 15: ZStd compression speedup/ratio/area (HT=2^14)")
	if err != nil {
		return nil, err
	}
	return []*Table{t}, nil
}

func runDSESummary(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	t := &Table{
		Title:   "Section 6.6: key design-space results",
		Columns: []string{"statistic", "measured", "paper"},
	}
	// Best-case speedups per unit (RoCC, full-size).
	snapD, err := getCompressedSuite(cfg, comp.Snappy)
	if err != nil {
		return nil, err
	}
	zstdD, err := getCompressedSuite(cfg, comp.ZStd)
	if err != nil {
		return nil, err
	}
	snapC, err := getSuite(cfg, comp.Snappy, comp.Compress)
	if err != nil {
		return nil, err
	}
	zstdC, err := getSuite(cfg, comp.ZStd, comp.Compress)
	if err != nil {
		return nil, err
	}

	var snapCXeon, zstdCXeon float64
	for _, f := range snapC.Files {
		snapCXeon += xeon.Cycles(comp.Snappy, comp.Compress, f.Level, len(f.Data))
	}
	for _, f := range zstdC.Files {
		zstdCXeon += xeon.Cycles(comp.ZStd, comp.Compress, f.Level, len(f.Data))
	}

	// All eight summary configurations run as one batch on the shared pool;
	// most are corner cells of the Figure 11-15 grids and come straight from
	// the memo when those figures ran first.
	decomp := func(cs *compressedSuite, cfg core.Config, dst *float64) func() error {
		return func() error {
			cyc, err := runDecompConfig(cs, cfg)
			if err == nil {
				*dst = cyc
			}
			return err
		}
	}
	compress := func(s *hcbench.Suite, cfg core.Config, dst *float64) func() error {
		return func() error {
			cyc, _, err := runCompConfig(s, cfg)
			if err == nil {
				*dst = cyc
			}
			return err
		}
	}
	var snapDRoCC, snapDPCIe, zstdDRoCC, zstdDPCIe, snapCRoCC, zstdCRoCC, snapCPCIe, zstdDWorst float64
	err = runAll(
		decomp(snapD, core.Config{Algo: comp.Snappy}, &snapDRoCC),
		decomp(snapD, core.Config{Algo: comp.Snappy, Placement: memsys.PCIeNoCache}, &snapDPCIe),
		decomp(zstdD, core.Config{Algo: comp.ZStd}, &zstdDRoCC),
		decomp(zstdD, core.Config{Algo: comp.ZStd, Placement: memsys.PCIeNoCache}, &zstdDPCIe),
		compress(snapC, core.Config{Algo: comp.Snappy}, &snapCRoCC),
		compress(zstdC, core.Config{Algo: comp.ZStd}, &zstdCRoCC),
		compress(snapC, core.Config{Algo: comp.Snappy, Placement: memsys.PCIeNoCache}, &snapCPCIe),
		decomp(zstdD, core.Config{Algo: comp.ZStd, Speculation: 4, Placement: memsys.PCIeNoCache, HistorySRAM: 2 << 10}, &zstdDWorst),
	)
	if err != nil {
		return nil, err
	}

	speedups := map[string]float64{}
	record := func(name string, xeonCyc, cdpuCyc float64) {
		speedups[name] = xeonSeconds(xeonCyc) / cdpuSeconds(cdpuCyc)
	}
	record("snappy-D RoCC 64K", snapD.xeonCycles, snapDRoCC)
	record("snappy-D PCIe 64K", snapD.xeonCycles, snapDPCIe)
	record("zstd-D RoCC 64K", zstdD.xeonCycles, zstdDRoCC)
	record("zstd-D PCIe 64K", zstdD.xeonCycles, zstdDPCIe)
	record("snappy-C RoCC 64K14HT", snapCXeon, snapCRoCC)
	record("zstd-C RoCC 64K14HT", zstdCXeon, zstdCRoCC)
	record("snappy-C PCIe 64K14HT", snapCXeon, snapCPCIe)
	record("zstd-D worst (PCIe 2K spec4)", zstdD.xeonCycles, zstdDWorst)

	t.AddRow("Snappy decompression, near-core", f2(speedups["snappy-D RoCC 64K"])+"x", "10.4x")
	t.AddRow("Snappy decompression, PCIe", f2(speedups["snappy-D PCIe 64K"])+"x", "~1.8x")
	t.AddRow("ZStd decompression, near-core", f2(speedups["zstd-D RoCC 64K"])+"x", "4.2x")
	t.AddRow("ZStd decompression, PCIe", f2(speedups["zstd-D PCIe 64K"])+"x", "~1.4x")
	t.AddRow("Snappy compression, near-core", f2(speedups["snappy-C RoCC 64K14HT"])+"x", "16.2x")
	t.AddRow("Snappy compression, PCIe", f2(speedups["snappy-C PCIe 64K14HT"])+"x", "~6.6x")
	t.AddRow("ZStd compression, near-core", f2(speedups["zstd-C RoCC 64K14HT"])+"x", "15.8x")

	// Speedup span across the explored space (paper: 46x).
	maxS, minS := 0.0, 1e18
	for _, v := range speedups {
		if v > maxS {
			maxS = v
		}
		if v < minS {
			minS = v
		}
	}
	t.AddRow("speedup span across DSE", f1(maxS/minS)+"x", "46x")

	// Area fractions.
	dArea, _ := core.NewDecompressor(core.Config{Algo: comp.Snappy})
	cArea, _ := core.NewCompressor(core.Config{Algo: comp.Snappy})
	t.AddRow("Snappy decompressor area vs Xeon core", pct(dArea.Area().FracOfXeonCore()), "2.4%")
	t.AddRow("Snappy compressor area vs Xeon core", pct(cArea.Area().FracOfXeonCore()), "4.7%")
	zd, _ := core.NewDecompressor(core.Config{Algo: comp.ZStd})
	zc, _ := core.NewCompressor(core.Config{Algo: comp.ZStd})
	t.AddRow("ZStd decompressor area (mm2, 16nm)", f2(zd.Area().Total()), "1.9")
	t.AddRow("ZStd compressor area (mm2, 16nm)", f2(zc.Area().Total()), "3.48")
	t.AddRow("Snappy pipeline pair area (mm2)", f2(dArea.Area().Total()+cArea.Area().Total()), "~1.3")
	t.AddRow("ZStd pipeline pair area (mm2)", f2(zd.Area().Total()+zc.Area().Total()), "~5.7")
	return []*Table{t}, nil
}

func runAblationHash(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite, err := getSuite(cfg, comp.Snappy, comp.Compress)
	if err != nil {
		return nil, err
	}
	swRatio, err := softwareRatio(cfg, suite)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: LZ77 hash function x associativity (Snappy compressor, 2K SRAM, HT9)",
		Note:    "Small tables make collisions the binding constraint; associativity and hash quality buy ratio back.",
		Columns: []string{"hash", "assoc", "ratio-vs-SW", "area-mm2"},
	}
	hashes := []lz77.HashFunc{lz77.HashFibonacci, lz77.HashXorShift, lz77.HashTrivial}
	assocs := []int{1, 2, 4}
	ratios := make([]float64, len(hashes)*len(assocs))
	var fns []func() error
	for hi, h := range hashes {
		for ai, assoc := range assocs {
			c := core.Config{
				Algo: comp.Snappy, HistorySRAM: 2 << 10,
				HashTableEntries: 1 << 9, HashAssociativity: assoc, HashFunc: h,
			}
			idx := hi*len(assocs) + ai
			fns = append(fns, func() error {
				_, ratio, err := runCompConfig(suite, c)
				if err == nil {
					ratios[idx] = ratio
				}
				return err
			})
		}
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	for hi, h := range hashes {
		for ai, assoc := range assocs {
			c := core.Config{
				Algo: comp.Snappy, HistorySRAM: 2 << 10,
				HashTableEntries: 1 << 9, HashAssociativity: assoc, HashFunc: h,
			}
			cc, _ := core.NewCompressor(c)
			t.AddRow(h.String(), fmt.Sprintf("%d", assoc), f3(ratios[hi*len(assocs)+ai]/swRatio), f3(cc.Area().Total()))
		}
	}
	return []*Table{t}, nil
}

func runAblationFSE(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite, err := getSuite(cfg, comp.ZStd, comp.Compress)
	if err != nil {
		return nil, err
	}
	var xeonCyc float64
	for _, f := range suite.Files {
		xeonCyc += xeon.Cycles(comp.ZStd, comp.Compress, f.Level, len(f.Data))
	}
	t := &Table{
		Title:   "Ablation: FSE table accuracy (ZStd compressor, 64K/HT14)",
		Note:    "Higher accuracy buys entropy-coding efficiency at table-SRAM and build-time cost.",
		Columns: []string{"tableLog", "speedup-vs-Xeon", "achieved-ratio", "area-mm2"},
	}
	tableLogs := []int{5, 7, 9, 11}
	type cell struct{ cycles, ratio float64 }
	cells := make([]cell, len(tableLogs))
	var fns []func() error
	for i, tl := range tableLogs {
		c := core.Config{Algo: comp.ZStd, FSETableLog: tl}
		fns = append(fns, func() error {
			cyc, ratio, err := runCompConfig(suite, c)
			if err == nil {
				cells[i] = cell{cycles: cyc, ratio: ratio}
			}
			return err
		})
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	for i, tl := range tableLogs {
		cc, _ := core.NewCompressor(core.Config{Algo: comp.ZStd, FSETableLog: tl})
		t.AddRow(fmt.Sprintf("%d", tl),
			f2(xeonSeconds(xeonCyc)/cdpuSeconds(cells[i].cycles))+"x", f3(cells[i].ratio), f3(cc.Area().Total()))
	}
	return []*Table{t}, nil
}

func runAblationStats(cfg Config) ([]*Table, error) {
	cfg = cfg.withDefaults()
	suite, err := getSuite(cfg, comp.ZStd, comp.Compress)
	if err != nil {
		return nil, err
	}
	var xeonCyc float64
	for _, f := range suite.Files {
		xeonCyc += xeon.Cycles(comp.ZStd, comp.Compress, f.Level, len(f.Data))
	}
	t := &Table{
		Title:   "Ablation: symbol-statistics width (ZStd compressor dictionary builders)",
		Columns: []string{"bytes/cycle", "speedup-vs-Xeon", "area-mm2"},
	}
	widths := []int{1, 2, 4, 8, 16, 32}
	cycles := make([]float64, len(widths))
	var fns []func() error
	for i, w := range widths {
		c := core.Config{Algo: comp.ZStd, StatsWidth: w}
		fns = append(fns, func() error {
			cyc, _, err := runCompConfig(suite, c)
			if err == nil {
				cycles[i] = cyc
			}
			return err
		})
	}
	if err := runAll(fns...); err != nil {
		return nil, err
	}
	for i, w := range widths {
		cc, _ := core.NewCompressor(core.Config{Algo: comp.ZStd, StatsWidth: w})
		t.AddRow(fmt.Sprintf("%d", w),
			f2(xeonSeconds(xeonCyc)/cdpuSeconds(cycles[i]))+"x", f3(cc.Area().Total()))
	}
	return []*Table{t}, nil
}
