// Command cdpubench runs the registered experiments of the reproduction: the
// Section 3 fleet profile (Figures 1-6 and the headline statistics), the
// Section 4 HyperCompressBench validation (Figure 7), the Section 6
// design-space exploration (Figures 11-15, the §6.6 summary), the ablations
// DESIGN.md calls out and the extensions beyond the paper. The ids live in one
// table, internal/exp's registry; run with no arguments to list them.
//
// Usage:
//
//	cdpubench -fig 11              # one figure: -fig N runs experiment "figN"
//	cdpubench -exp fleet-summary   # Section 3 headline statistics
//	cdpubench -samples 1000000     # GWP-style fleet sample count (figures 1-6)
//	cdpubench -summary             # §6.6 key results
//	cdpubench -ablation hash       # hash|fse|stats
//	cdpubench -exp fault-sweep     # any registered experiment by id
//	cdpubench -all                 # every registered experiment, in exp.IDs() order
//	cdpubench -files 500 -seed 2   # scale/seed overrides
//	cdpubench -workers 4           # simulation worker-pool size
//	cdpubench -calls 50000         # service-replay call count
//	cdpubench -replicas 6          # failover-sweep max replica-group width
//	cdpubench -csv out/            # also write each table as CSV
//	cdpubench -metrics             # dump the metrics registry to stderr after
//	                               # the run (cache traffic, bytes/placement,
//	                               # fault injections, ...)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cdpu/internal/exp"
	"cdpu/internal/obs"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate, e.g. 11 or 2a (runs experiment \"figN\")")
	summary := flag.Bool("summary", false, "print the §6.6 design-space summary")
	ablation := flag.String("ablation", "", "ablation to run: hash, fse or stats")
	expID := flag.String("exp", "", "registered experiment id to run (e.g. fault-sweep)")
	all := flag.Bool("all", false, "run every registered experiment, in the order the bare command lists them")
	samples := flag.Int("samples", 0, "fleet call samples for the Section 3 profile (default 300000)")
	files := flag.Int("files", 0, "HyperCompressBench files per suite (default 500; paper uses 8000-10000)")
	maxFile := flag.Int("maxfile", 0, "max benchmark file size in bytes (default 4 MiB)")
	seed := flag.Int64("seed", 0, "generation seed (default 1)")
	workers := flag.Int("workers", 0, "simulation worker-pool size (default min(8, GOMAXPROCS-1), at least 1)")
	calls := flag.Int("calls", 0, "fleet calls per service-replay cell (default 10000)")
	replicas := flag.Int("replicas", 0, "maximum replica-group width the failover sweep scales to (default 4)")
	devices := flag.Int("devices", 0, "device instances per fleet slot in replay experiments (default 1: one per slot, a 4-device fleet)")
	csvDir := flag.String("csv", "", "directory to write per-table CSV files into")
	metrics := flag.Bool("metrics", false, "dump the metrics registry to stderr after the run")
	flag.Parse()

	exp.SetWorkers(*workers)

	cfg := exp.DefaultConfig()
	if *samples > 0 {
		cfg.FleetSamples = *samples
	}
	if *files > 0 {
		cfg.SuiteFiles = *files
	}
	if *maxFile > 0 {
		cfg.MaxFileBytes = *maxFile
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *calls > 0 {
		cfg.ReplayCalls = *calls
	}
	if *replicas > 0 {
		cfg.Replicas = *replicas
	}
	if *devices > 0 {
		cfg.Devices = *devices
	}

	var ids []string
	switch {
	case *all:
		ids = exp.IDs()
	case *summary:
		ids = []string{"dse-summary"}
	case *ablation != "":
		ids = []string{"ablation-" + *ablation}
	case *expID != "":
		ids = []string{*expID}
	case *fig != "":
		ids = []string{"fig" + *fig}
	default:
		fmt.Fprintln(os.Stderr, "specify -fig N, -summary, -ablation NAME, -exp ID or -all; available experiments:")
		for _, id := range exp.IDs() {
			fmt.Fprintln(os.Stderr, "  "+id)
		}
		os.Exit(2)
	}

	for _, id := range ids {
		if err := runOne(id, cfg, *csvDir); err != nil {
			fmt.Fprintf(os.Stderr, "cdpubench: %v\n", err)
			os.Exit(1)
		}
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "# metrics registry")
		if err := obs.Default().WriteText(os.Stderr); err != nil {
			fmt.Fprintf(os.Stderr, "cdpubench: metrics: %v\n", err)
			os.Exit(1)
		}
	}
}

func runOne(id string, cfg exp.Config, csvDir string) error {
	e, err := exp.ByID(id)
	if err != nil {
		return err
	}
	before, beforeTr := exp.RunCacheStats(), exp.TraceCacheStats()
	start := time.Now()
	tables, err := e.Run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", id, err)
	}
	after, afterTr := exp.RunCacheStats(), exp.TraceCacheStats()
	fmt.Fprintf(os.Stderr, "# %-14s %8.2fs  config-runs: %d cached / %d simulated  functional passes: %d traced / %d reused (workers=%d)\n",
		id, time.Since(start).Seconds(), after.Hits-before.Hits, after.Misses-before.Misses,
		afterTr.Misses-beforeTr.Misses, afterTr.Hits-beforeTr.Hits, exp.Workers())
	for i, t := range tables {
		fmt.Println(t.String())
		if csvDir != "" {
			if err := os.MkdirAll(csvDir, 0o755); err != nil {
				return err
			}
			name := fmt.Sprintf("%s-%d.csv", strings.ReplaceAll(id, "/", "_"), i)
			if err := os.WriteFile(filepath.Join(csvDir, name), []byte(t.CSV()), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
