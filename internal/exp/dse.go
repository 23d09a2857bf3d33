package exp

import (
	"fmt"

	"cdpu/internal/area"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fleet"
	"cdpu/internal/hcbench"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/xeon"
)

// sramSweep is the Figures 11-15 x-axis.
var sramSweep = []int{64 << 10, 32 << 10, 16 << 10, 8 << 10, 4 << 10, 2 << 10}

func sramLabel(b int) string { return fmt.Sprintf("%dK", b>>10) }

// workload is one HyperCompressBench suite as the DSE runs it, in one
// direction, with everything about it that no CDPU configuration changes: the
// software baseline a speedup or a ratio is taken against.
type workload struct {
	key        string // names the suite in the run and trace memos
	op         comp.Op
	suite      *hcbench.Suite
	compressed [][]byte // each file compressed in software with its recorded parameters; decompression only
	xeonCycles float64  // Xeon cycles for op over the suite
	swRatio    float64  // suite-aggregate software compression ratio
}

// The four workloads are shared by several experiments, and building one
// (assembling the suite from hcbench's per-algorithm chunk pool, then
// compressing every file in software) is the larger part of a cold sweep. The
// memoMap makes the cache safe (and deduplicated) under concurrent experiment
// execution; unlike the config-run memo it is worker-count independent, so it
// survives SetWorkers.
var workloadMemo = memoMap[*workload]{obsHits: metricSuiteCacheHits, obsMisses: metricSuiteCacheMisses}

func getWorkload(cfg Config, algo comp.Algorithm, op comp.Op) (*workload, error) {
	key := fmt.Sprintf("%v-%v-%d-%d-%d", algo, op, cfg.SuiteFiles, cfg.MaxFileBytes, cfg.Seed)
	return workloadMemo.do(key, func() (*workload, error) {
		suite, err := hcbench.Generate(hcbench.Spec{
			Algo: algo, Op: op, N: cfg.SuiteFiles,
			MaxFileBytes: cfg.MaxFileBytes, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		w := &workload{key: key, op: op, suite: suite}
		n := len(suite.Files)
		if op == comp.Decompress {
			w.compressed = make([][]byte, n)
		}
		// Software compression of the suite is embarrassingly parallel (every
		// call leases its own coder), so it runs on the shared pool; the
		// totals are reduced in file order below. A decompression workload
		// keeps the frames; a compression one reads only their lengths, which
		// the size-only coder gives without entropy-coding the payloads.
		sizes := make([]int, n)
		err = current().parallelFiles(n, func(_, i int) error {
			f := suite.Files[i]
			// Full fleet-sampled window logs: frames may carry offsets far
			// beyond any on-accelerator SRAM, exercising the off-chip history
			// fallback exactly as §3.6 argues.
			if op == comp.Decompress {
				enc, err := comp.CompressCall(f.Algo, f.Level, f.WindowLog, f.Data)
				w.compressed[i], sizes[i] = enc, len(enc)
				return err
			}
			size, err := comp.SizeCall(f.Algo, f.Level, f.WindowLog, f.Data)
			sizes[i] = size
			return err
		})
		if err != nil {
			return nil, err
		}
		var in, out float64
		for i, f := range suite.Files {
			w.xeonCycles += xeon.Cycles(algo, op, f.Level, len(f.Data))
			in += float64(len(f.Data))
			out += float64(sizes[i])
		}
		w.swRatio = in / out
		return w, nil
	})
}

// sweep runs the workload under each configuration as one grid.
func (w *workload) sweep(cfgs []core.Config) ([]runResult, error) {
	cells := make([]cell, len(cfgs))
	for i, c := range cfgs {
		cells[i] = cell{w, c}
	}
	return runGrid(cells)
}

// speedup is Xeon time over CDPU time for one run of the workload, each at its
// own clock.
func (w *workload) speedup(r runResult) float64 {
	return xeon.Seconds(w.xeonCycles) / (r.cycles / (memsys.DeviceGHz * 1e9))
}

// cyclesPerUs converts CDPU cycles to microseconds at the SoC clock.
const cyclesPerUs = memsys.DeviceGHz * 1e3

// areaOf is the silicon area in mm² of the unit cfg generates for op.
func areaOf(cfg core.Config, op comp.Op) (float64, error) {
	cfg.Op = op
	d, err := core.NewDevice(cfg, 1)
	if err != nil {
		return 0, err
	}
	return d.Area().Total(), nil
}

func runFig7(cfg Config) ([]*Table, error) {
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
		w, err := getWorkload(cfg, ao.Algo, ao.Op)
		if err != nil {
			return nil, err
		}
		s := w.suite
		capBin := 0
		for b := 0; (1 << b) <= cfg.MaxFileBytes; b++ {
			capBin = b
		}
		summary.AddRow(
			fmt.Sprintf("%v-%v", ao.Algo, ao.Op),
			fmt.Sprintf("%d", len(s.Files)),
			f1(float64(s.TotalUncompressedBytes())/1e6),
			f3(s.FleetCDFGap(capBin-1)),
			f2(w.swRatio),
		)
		out = append(out, cdfTable(
			fmt.Sprintf("Figure 7: %v-%v HCB call-size CDF", ao.Algo, ao.Op),
			s.CallSizeCDF(), fleet.CallSizes(ao).CDF()))
	}
	return append([]*Table{summary}, out...), nil
}

// sweepTable is the Figures 11-15 shape: base swept across sramSweep and the
// direction's placements, reported as speedup vs Xeon per cell, plus the
// hardware/software ratio for compression, plus normalized area. The whole
// (SRAM x placement) grid is one runGrid batch — no barrier between cells —
// and rows are rendered afterwards in sweep order, so the table is identical
// at any worker count.
func sweepTable(cfg Config, title string, op comp.Op, base core.Config) ([]*Table, error) {
	w, err := getWorkload(cfg, base.Algo, op)
	if err != nil {
		return nil, err
	}
	placements := memsys.Placements
	if op == comp.Compress {
		placements = []memsys.Placement{memsys.RoCC, memsys.Chiplet, memsys.PCIeNoCache}
	}
	var cfgs []core.Config
	for _, sram := range sramSweep {
		for _, p := range placements {
			c := base
			c.HistorySRAM, c.Placement = sram, p
			cfgs = append(cfgs, c)
		}
	}
	runs, err := w.sweep(cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{Title: title, Columns: []string{"SRAM"}}
	for _, p := range placements {
		t.Columns = append(t.Columns, p.String())
	}
	files, mb := len(w.suite.Files), float64(w.suite.TotalUncompressedBytes())/1e6
	// Area normalizer: the 64K instance of the sweep, at HT14 for compression.
	full := base
	full.HistorySRAM = 64 << 10
	if op == comp.Compress {
		t.Note = fmt.Sprintf("Suite: %d files, %.1f MB; ratio normalized to software's %.2f. Area normalized to the 64K/HT14 instance.", files, mb, w.swRatio)
		t.Columns = append(t.Columns, "ratio-vs-SW", "area-mm2", "area-vs-64K14HT")
		full.HashTableEntries = 1 << 14
	} else {
		t.Note = fmt.Sprintf("Suite: %d files, %.1f MB uncompressed; speedup = Xeon time / CDPU time.", files, mb)
		t.Columns = append(t.Columns, "area-mm2", "area-vs-64K")
	}
	fullArea, err := areaOf(full, op)
	if err != nil {
		return nil, err
	}
	for si, sram := range sramSweep {
		row := []string{sramLabel(sram)}
		first := si * len(placements) // the row's RoCC cell
		for _, r := range runs[first : first+len(placements)] {
			row = append(row, f2(w.speedup(r))+"x")
		}
		if op == comp.Compress {
			row = append(row, f3(runs[first].ratio/w.swRatio))
		}
		a, err := areaOf(cfgs[first], op)
		if err != nil {
			return nil, err
		}
		t.AddRow(append(row, f3(a), f3(a/fullArea))...)
	}
	return []*Table{t}, nil
}

func runFig11(cfg Config) ([]*Table, error) {
	return sweepTable(cfg, "Figure 11: Snappy decompression speedup vs Xeon (by SRAM size and placement)",
		comp.Decompress, core.Config{Algo: comp.Snappy})
}

func runFig12(cfg Config) ([]*Table, error) {
	return sweepTable(cfg, "Figure 12: Snappy compression speedup/ratio/area (HT=2^14)",
		comp.Compress, core.Config{Algo: comp.Snappy, HashTableEntries: 1 << 14})
}

func runFig13(cfg Config) ([]*Table, error) {
	return sweepTable(cfg, "Figure 13: Snappy compression speedup/ratio/area (HT=2^9)",
		comp.Compress, core.Config{Algo: comp.Snappy, HashTableEntries: 1 << 9})
}

func runFig14(cfg Config) ([]*Table, error) {
	tables, err := sweepTable(cfg, "Figure 14: ZStd decompression speedup vs Xeon (by SRAM size and placement, spec=16)",
		comp.Decompress, core.Config{Algo: comp.ZStd, Speculation: 16})
	if err != nil {
		return nil, err
	}
	// Speculation sweep at 64K (the paper's §6.4 text numbers); the spec=16
	// instance normalizes the last column.
	w, err := getWorkload(cfg, comp.ZStd, comp.Decompress)
	if err != nil {
		return nil, err
	}
	at := func(speculation int) core.Config {
		return core.Config{Algo: comp.ZStd, HistorySRAM: 64 << 10, Speculation: speculation}
	}
	cfgs := []core.Config{at(4), at(16), at(32)}
	runs, err := w.sweep(cfgs)
	if err != nil {
		return nil, err
	}
	base, err := areaOf(at(16), w.op)
	if err != nil {
		return nil, err
	}
	spec := &Table{
		Title:   "Figure 14 (text): ZStd decompression Huffman speculation sweep at 64K SRAM",
		Columns: []string{"speculation", "speedup-vs-Xeon", "area-mm2", "area-vs-spec16"},
	}
	for i, c := range cfgs {
		a, err := areaOf(c, w.op)
		if err != nil {
			return nil, err
		}
		spec.AddRow(fmt.Sprintf("%d", c.Speculation), f2(w.speedup(runs[i]))+"x", f3(a), f3(a/base))
	}
	return append(tables, spec), nil
}

func runFig15(cfg Config) ([]*Table, error) {
	return sweepTable(cfg, "Figure 15: ZStd compression speedup/ratio/area (HT=2^14)",
		comp.Compress, core.Config{Algo: comp.ZStd, HashTableEntries: 1 << 14})
}

func runDSESummary(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:   "Section 6.6: key design-space results",
		Columns: []string{"statistic", "measured", "paper"},
	}
	// Best-case speedups per unit (RoCC, full-size) beside their PCIe points.
	// The last row has no line of its own: it is the far corner of the explored
	// space, and only widens the span.
	points := []struct {
		label, paper string
		op           comp.Op
		cfg          core.Config
	}{
		{"Snappy decompression, near-core", "10.4x", comp.Decompress, core.Config{Algo: comp.Snappy}},
		{"Snappy decompression, PCIe", "~1.8x", comp.Decompress, core.Config{Algo: comp.Snappy, Placement: memsys.PCIeNoCache}},
		{"ZStd decompression, near-core", "4.2x", comp.Decompress, core.Config{Algo: comp.ZStd}},
		{"ZStd decompression, PCIe", "~1.4x", comp.Decompress, core.Config{Algo: comp.ZStd, Placement: memsys.PCIeNoCache}},
		{"Snappy compression, near-core", "16.2x", comp.Compress, core.Config{Algo: comp.Snappy}},
		{"Snappy compression, PCIe", "~6.6x", comp.Compress, core.Config{Algo: comp.Snappy, Placement: memsys.PCIeNoCache}},
		{"ZStd compression, near-core", "15.8x", comp.Compress, core.Config{Algo: comp.ZStd}},
		{"", "", comp.Decompress, core.Config{Algo: comp.ZStd, Speculation: 4, Placement: memsys.PCIeNoCache, HistorySRAM: 2 << 10}},
	}
	// All eight run as one grid; most are corner cells of the Figure 11-15
	// grids and come straight from the memo when those figures ran first.
	cells := make([]cell, len(points))
	for i, p := range points {
		w, err := getWorkload(cfg, p.cfg.Algo, p.op)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{w, p.cfg}
	}
	runs, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	// Speedup span across the explored space (paper: 46x).
	maxS, minS := 0.0, 1e18
	for i, p := range points {
		s := cells[i].w.speedup(runs[i])
		maxS, minS = max(maxS, s), min(minS, s)
		if p.label != "" {
			t.AddRow(p.label, f2(s)+"x", p.paper)
		}
	}
	t.AddRow("speedup span across DSE", f1(maxS/minS)+"x", "46x")

	// Area of the four full-size units, indexed [algorithm][direction].
	var mm2 [2][2]float64
	for i, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, op := range []comp.Op{comp.Compress, comp.Decompress} {
			if mm2[i][op], err = areaOf(core.Config{Algo: algo}, op); err != nil {
				return nil, err
			}
		}
	}
	snap, zstd := mm2[0], mm2[1]
	t.AddRow("Snappy decompressor area vs Xeon core", pct(snap[comp.Decompress]/area.XeonCoreTile), "2.4%")
	t.AddRow("Snappy compressor area vs Xeon core", pct(snap[comp.Compress]/area.XeonCoreTile), "4.7%")
	t.AddRow("ZStd decompressor area (mm2, 16nm)", f2(zstd[comp.Decompress]), "1.9")
	t.AddRow("ZStd compressor area (mm2, 16nm)", f2(zstd[comp.Compress]), "3.48")
	t.AddRow("Snappy pipeline pair area (mm2)", f2(snap[comp.Decompress]+snap[comp.Compress]), "~1.3")
	t.AddRow("ZStd pipeline pair area (mm2)", f2(zstd[comp.Decompress]+zstd[comp.Compress]), "~5.7")
	return []*Table{t}, nil
}

func runAblationHash(cfg Config) ([]*Table, error) {
	w, err := getWorkload(cfg, comp.Snappy, comp.Compress)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, h := range []lz77.HashFunc{lz77.HashFibonacci, lz77.HashXorShift, lz77.HashTrivial} {
		for _, assoc := range []int{1, 2, 4} {
			cfgs = append(cfgs, core.Config{
				Algo: comp.Snappy, HistorySRAM: 2 << 10,
				HashTableEntries: 1 << 9, HashAssociativity: assoc, HashFunc: h,
			})
		}
	}
	runs, err := w.sweep(cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: LZ77 hash function x associativity (Snappy compressor, 2K SRAM, HT9)",
		Note:    "Small tables make collisions the binding constraint; associativity and hash quality buy ratio back.",
		Columns: []string{"hash", "assoc", "ratio-vs-SW", "area-mm2"},
	}
	for i, c := range cfgs {
		a, err := areaOf(c, w.op)
		if err != nil {
			return nil, err
		}
		t.AddRow(c.HashFunc.String(), fmt.Sprintf("%d", c.HashAssociativity), f3(runs[i].ratio/w.swRatio), f3(a))
	}
	return []*Table{t}, nil
}

func runAblationFSE(cfg Config) ([]*Table, error) {
	w, err := getWorkload(cfg, comp.ZStd, comp.Compress)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, tableLog := range []int{5, 7, 9, 11} {
		cfgs = append(cfgs, core.Config{Algo: comp.ZStd, FSETableLog: tableLog})
	}
	runs, err := w.sweep(cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: FSE table accuracy (ZStd compressor, 64K/HT14)",
		Note:    "Higher accuracy buys entropy-coding efficiency at table-SRAM and build-time cost.",
		Columns: []string{"tableLog", "speedup-vs-Xeon", "achieved-ratio", "area-mm2"},
	}
	for i, c := range cfgs {
		a, err := areaOf(c, w.op)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", c.FSETableLog), f2(w.speedup(runs[i]))+"x", f3(runs[i].ratio), f3(a))
	}
	return []*Table{t}, nil
}

func runAblationStats(cfg Config) ([]*Table, error) {
	w, err := getWorkload(cfg, comp.ZStd, comp.Compress)
	if err != nil {
		return nil, err
	}
	var cfgs []core.Config
	for _, width := range []int{1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, core.Config{Algo: comp.ZStd, StatsWidth: width})
	}
	runs, err := w.sweep(cfgs)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: symbol-statistics width (ZStd compressor dictionary builders)",
		Columns: []string{"bytes/cycle", "speedup-vs-Xeon", "area-mm2"},
	}
	for i, c := range cfgs {
		a, err := areaOf(c, w.op)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", c.StatsWidth), f2(w.speedup(runs[i]))+"x", f3(a))
	}
	return []*Table{t}, nil
}
