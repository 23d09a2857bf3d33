package exp

// The fault-sweep experiment drives the internal/fault layer through the
// full simulator: seeded stream corruption measures how quickly each
// placement detects a corrupt input (detection latency is dominated by the
// host->device transfer, so it widens with the interconnect), and injected
// device faults exercise the abort paths (memory-fault errors, the cycle
// watchdog) plus graceful degradation under stalled MSHRs.
//
// Every per-file loop drains through the shared scheduler pool and reduces
// in file-index order, so the tables are byte-identical at any -workers
// setting. Unexpected failures propagate with the offending config key and
// file index attached (the scheduler's first-error semantics).

import (
	"errors"
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
)

// detectStats is one (placement x corruption kind) cell of the detection
// table, reduced in file-index order.
type detectStats struct {
	detected, total int
	meanCycles      float64 // over detected files only
}

// detectFaults corrupts every compressed file in the suite with the given
// kind (seeded per file, reproducible) and decodes it on a unit at cfg's
// placement. A DeviceError counts as detected and contributes its detection
// latency; a nil error is an undetected (but deterministic) decode; any
// other error is an internal failure and propagates with config context.
func (s *scheduler) detectFaults(w *workload, cfg core.Config, kind fault.Kind, seed int64) (detectStats, error) {
	n := len(w.compressed)
	decs := make([]*core.Decompressor, max(1, min(s.workers, n)))
	for i := range decs {
		var err error
		if decs[i], err = core.NewDecompressor(cfg); err != nil {
			return detectStats{}, err
		}
	}
	cycles := make([]float64, n)
	hit := make([]bool, n)
	err := s.parallelFiles(n, func(unit, i int) error {
		d := decs[unit]
		bad := fault.Mutate(seed+int64(i), kind, w.compressed[i])
		_, err := d.Decompress(bad)
		if err == nil {
			return nil // corruption survived decoding; counted as undetected
		}
		var derr *core.DeviceError
		if !errors.As(err, &derr) {
			return err
		}
		cycles[i] = derr.Cycles
		hit[i] = true
		return nil
	})
	if err != nil {
		return detectStats{}, fmt.Errorf("config %s: %w", cfg.Key(), err)
	}
	st := detectStats{total: n}
	for i := 0; i < n; i++ {
		if hit[i] {
			st.detected++
			st.meanCycles += cycles[i]
		}
	}
	if st.detected > 0 {
		st.meanCycles /= float64(st.detected)
	}
	return st, nil
}

func runFaultSweep(cfg Config) ([]*Table, error) {
	w, err := getWorkload(cfg, comp.Snappy, comp.Decompress)
	if err != nil {
		return nil, err
	}
	s := current()

	// Table 1: corrupt-input detection latency per placement x corruption
	// kind. Detection is charged at the point the decoder rejects the
	// stream: doorbell + round trip + streaming the input over the link.
	detect := &Table{
		Title: "Corrupt-input detection latency (snappy decompression)",
		Note: fmt.Sprintf("%d files; seeded stream corruption; mean cycles over detected files. "+
			"Undetected cells are corruptions the format cannot distinguish from valid data.", len(w.compressed)),
		Columns: []string{"placement", "corruption", "detected", "mean detect cycles"},
	}
	for _, p := range memsys.Placements {
		c := core.Config{Algo: comp.Snappy, Placement: p}
		for _, kind := range fault.Kinds {
			st, err := s.detectFaults(w, c, kind, cfg.Seed)
			if err != nil {
				return nil, err
			}
			mean := "-"
			if st.detected > 0 {
				mean = f1(st.meanCycles)
			}
			detect.AddRow(p.String(), kind.String(),
				fmt.Sprintf("%d/%d", st.detected, st.total), mean)
		}
	}

	// Table 2: graceful degradation. Stalled MSHRs shrink the effective
	// memory-level parallelism; runs complete, slower, with no error. The
	// stalled column is the same walk over the shared traces as the healthy
	// config run, on a unit carrying the injector, never memoized.
	stallPlan := fault.Plan{StallEvery: 1, StallMSHRs: 4}
	degraded := &Table{
		Title:   "Degraded-device throughput under stalled MSHRs",
		Note:    fmt.Sprintf("%d files; %d of the outstanding misses stalled on every access.", len(w.compressed), stallPlan.StallMSHRs),
		Columns: []string{"placement", "healthy cycles", "stalled cycles", "slowdown"},
	}
	for _, p := range memsys.Placements {
		c := core.Config{Algo: comp.Snappy, Placement: p}
		healthy, err := s.run(w, c)
		if err != nil {
			return nil, err
		}
		stalled, err := s.timeSuite(w, c, stallPlan)
		if err != nil {
			return nil, err
		}
		degraded.AddRow(p.String(), f1(healthy.cycles), f1(stalled.cycles), f2(stalled.cycles/healthy.cycles)+"x")
	}

	// Table 3: abort behavior. An error response aborts with a memory-fault
	// DeviceError; a latency spike far past the cycle budget trips the
	// watchdog, which reports the budget rather than the runaway latency.
	probe := w.compressed[0]
	scenarios := []struct {
		name string
		plan fault.Plan
	}{
		{"error-response", fault.Plan{ErrorEvery: 1}},
		{"latency-spike", fault.Plan{SpikeEvery: 1, SpikeCycles: 1e12}},
	}
	abort := &Table{
		Title:   "Device-fault abort behavior (single-call probe)",
		Note:    fmt.Sprintf("probe: file 0, %d compressed bytes.", len(probe)),
		Columns: []string{"placement", "fault", "outcome", "abort cycles"},
	}
	for _, p := range memsys.Placements {
		c := core.Config{Algo: comp.Snappy, Placement: p}
		for _, sc := range scenarios {
			d, err := core.NewDecompressor(c)
			if err != nil {
				return nil, err
			}
			d.SetFaultInjector(sc.plan)
			_, err = d.Decompress(probe)
			var derr *core.DeviceError
			if !errors.As(err, &derr) {
				return nil, fmt.Errorf("config %s: %s fault not surfaced as DeviceError: %v", c.Key(), sc.name, err)
			}
			abort.AddRow(p.String(), sc.name, derr.Reason, f1(derr.Cycles))
		}
	}

	return []*Table{detect, degraded, abort}, nil
}
