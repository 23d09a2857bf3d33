package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// spec is the part of BENCHMARK.json the harness reads.
type spec struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []specMetric                 `json:"end_to_end"`
	PerLayer  []specMetric                 `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// gate is how one end-to-end metric is judged.
type gate struct {
	name     string
	higher   bool    // higher is better
	bound    float64 // share of the first side's median, or points when absolute
	absolute bool
}

// workloadGates bound the end-to-end metrics BENCHMARK.json cannot carry as
// such (see workloadMetrics).
var workloadGates = []gate{
	{name: "peak_sys_mb", bound: 0.25},
	{name: "compress_mbps", higher: true, bound: 0.25},
	{name: "decompress_mbps", higher: true, bound: 0.25},
	{name: "ratio", higher: true, bound: 0.005},
	{name: "paper_err_pct", bound: 0.25, absolute: true},
	{name: "failed_frac", bound: 0, absolute: true},
}

func readRows(path string) ([]row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows []row
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r row
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		rows = append(rows, r)
	}
	return rows, sc.Err()
}

// values collects, from a file's untraced rows of one workload, the values of
// one metric and the seeds they were measured on, in seed order: the reported
// value of each run when the file holds several runs, the per-rep samples of
// the single run (and no seeds) otherwise.
func values(rows []row, workload, name string) (vals []float64, seeds []int64) {
	var runs []*row
	for i := range rows {
		if _, ok := rows[i].Metrics[name]; ok && rows[i].Workload == workload && !rows[i].Traced {
			runs = append(runs, &rows[i])
		}
	}
	if len(runs) == 1 && len(runs[0].Metrics[name].Samples) > 1 {
		return runs[0].Metrics[name].Samples, nil
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	for _, r := range runs {
		vals = append(vals, r.Metrics[name].Value)
		seeds = append(seeds, r.Seed)
	}
	return vals, seeds
}

// verdict judges side B against side A. "unresolved" means the run-to-run
// spread is wider than the bound and the runs do not all point the same way,
// so the data can show neither a regression nor its absence. When paired, a[i]
// and b[i] were measured on the same seed: the spread is then that of the
// differences b[i]-a[i], which leaves out what the seed itself moves;
// otherwise it is the wider of the two sides' own spreads.
func verdict(g gate, a, b []float64, paired bool) (v string, medA, medB float64) {
	_, medA, _ = quartiles(a)
	_, medB, _ = quartiles(b)
	sign := 1.0 // turns "higher" into "worse"
	if g.higher {
		sign = -1
	}
	bound := g.bound
	if !g.absolute {
		bound *= math.Abs(medA)
	}
	iqr := func(xs []float64) float64 { q1, _, q3 := quartiles(xs); return q3 - q1 }
	lo := func(xs []float64) float64 { return slices.Min(xs) }
	hi := func(xs []float64) float64 { return slices.Max(xs) }

	var spread float64
	var mixed bool // some runs of B read better than some of A, and some worse
	if paired {
		d := make([]float64, len(a))
		for i := range a {
			d[i] = b[i] - a[i]
		}
		spread, mixed = iqr(d), lo(d) < 0 && hi(d) > 0
	} else {
		spread, mixed = max(iqr(a), iqr(b)), lo(a) <= hi(b) && lo(b) <= hi(a)
	}
	switch {
	case spread > bound && mixed:
		return "unresolved", medA, medB
	case sign*(medB-medA) > bound:
		return "worse", medA, medB
	}
	return "ok", medA, medB
}

// runCompare prints, for every workload and end-to-end metric both files
// hold, both medians and quartiles, the bound and a verdict. It returns an
// error when any metric is worse.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench -compare A.json B.json")
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("-compare reads the bounds from BENCHMARK.json in the current directory: %w", err)
	}
	var gates []gate
	for _, m := range sp.EndToEnd {
		gates = append(gates, gate{name: m.Name, higher: m.Better == "higher", bound: m.Bound})
	}
	gates = append(gates, workloadGates...)
	a, err := readRows(args[0])
	if err != nil {
		return err
	}
	b, err := readRows(args[1])
	if err != nil {
		return err
	}

	worse := 0
	fmt.Fprintf(w, "%-16s %-16s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "A median", "A quartiles", "B median", "B quartiles", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, g := range gates {
			va, seedsA := values(a, wl, g.name)
			vb, seedsB := values(b, wl, g.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, medA, medB := verdict(g, va, vb, seedsA != nil && slices.Equal(seedsA, seedsB))
			if v == "worse" {
				worse++
			}
			q1a, _, q3a := quartiles(va)
			q1b, _, q3b := quartiles(vb)
			bound := fmt.Sprintf("%.3g%%", 100*g.bound)
			if g.absolute {
				bound = fmt.Sprintf("%.3g", g.bound)
			}
			fmt.Fprintf(w, "%-16s %-16s %12.5g %25s %12.5g %25s %8s  %s\n", wl, g.name,
				medA, fmt.Sprintf("[%.5g, %.5g]", q1a, q3a), medB, fmt.Sprintf("[%.5g, %.5g]", q1b, q3b), bound, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse than the bound allows", worse)
	}
	return nil
}
