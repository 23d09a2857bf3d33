package exp

import (
	"fmt"
	"math/rand"

	"cdpu/internal/chain"
	"cdpu/internal/cluster"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/fleet"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
)

// runChaining quantifies §3.5.2: a serialize-then-compress data-access
// operation across placements, showing the compounding offload overhead of
// remote accelerators.
func runChaining(cfg Config) ([]*Table, error) {
	t := &Table{
		Title: "Chained serialize+compress operation latency by placement (§3.5.2)",
		Note:  "Chain penalty = chained latency / lone-compression latency at the same placement.",
		Columns: []string{"payload", "placement", "chain-us", "single-us",
			"chain-penalty", "interlude-transfer-cycles"},
	}
	for _, payload := range []int{4 << 10, 64 << 10, 1 << 20} {
		for _, p := range []memsys.Placement{memsys.RoCC, memsys.Chiplet, memsys.PCIeNoCache} {
			chained, err := chain.Run(chain.WritePath(p, 3.0, 2.0), payload)
			if err != nil {
				return nil, err
			}
			single := chain.Config{Placement: p, Stages: []chain.Stage{chain.Compressor(3.0, 2.0)}}
			lone, err := chain.Run(single, payload)
			if err != nil {
				return nil, err
			}
			t.AddRow(
				fmt.Sprintf("%dK", payload>>10),
				p.String(),
				f1(chained.Cycles/cyclesPerUs),
				f1(lone.Cycles/cyclesPerUs),
				f2(chained.Cycles/lone.Cycles),
				fmt.Sprintf("%.0f", chained.InterludeTransfer),
			)
		}
	}
	return []*Table{t}, nil
}

// runPipelines sweeps device pipeline counts against offered load, the
// provisioning question behind deploying CDPUs for latency-sensitive
// decompression (§3.3.1 notes decompression sits on client-visible reads).
func runPipelines(cfg Config) ([]*Table, error) {
	t := &Table{
		Title:   "Snappy decompression device: latency percentiles vs pipelines and load",
		Note:    "Load 1.0 = arrivals matching one pipeline's capacity. Latencies in microseconds at 2 GHz.",
		Columns: []string{"load", "pipelines", "utilization", "mean-us", "p99-us"},
	}
	// A job mix of fleet-shaped small reads. Service cycles depend on the
	// payload alone, so each is executed once and every (load, pipelines) cell
	// is a queueing pass over the same service times.
	rng := rand.New(rand.NewSource(cfg.Seed))
	probe, err := core.NewDecompressor(core.Config{Algo: comp.Snappy})
	if err != nil {
		return nil, err
	}
	service := make([]float64, 150)
	var totalService float64
	for i := range service {
		data := corpus.Generate(corpus.JSON, 4<<10+rng.Intn(60<<10), int64(i))
		res, err := probe.Decompress(snappy.Encode(data))
		if err != nil {
			return nil, err
		}
		service[i] = res.Cycles
		totalService += res.Cycles
	}
	meanService := totalService / float64(len(service))
	for _, load := range []float64{0.5, 0.9, 1.5} {
		gap := meanService / load
		for _, pipes := range []int{1, 2, 4} {
			calls := make([]cluster.Call, len(service))
			at := 0.0
			jrng := rand.New(rand.NewSource(cfg.Seed + int64(load*100)))
			for i := range calls {
				calls[i] = cluster.Call{Arrival: at, Index: i, Service: service[i]}
				at += gap * (0.25 + 1.5*jrng.Float64())
			}
			// A one-replica, zero-policy group is the lone FCFS device.
			dev := cluster.Group{Replicas: 1, Pipelines: pipes}
			_, stats, _, err := dev.Replay(calls)
			if err != nil {
				return nil, err
			}
			t.AddRow(f2(load), fmt.Sprintf("%d", pipes), f2(stats.Utilization),
				f1(stats.MeanLatency/cyclesPerUs), f1(stats.P99Latency/cyclesPerUs))
		}
	}
	return []*Table{t}, nil
}

// runDeployment estimates the fleet-level resource savings of deploying
// CDPUs — the paper's §3.3 motivation turned into numbers: CPU cycles
// offloaded, and compressed-byte reductions when services move to
// heavyweight-format output at accelerator cost.
func runDeployment(cfg Config) ([]*Table, error) {
	// Measured accelerator speedups and ratios from the DSE at this scale: the
	// full-size near-core unit on each of the four workloads, as one grid.
	units := []fleet.AlgoOp{
		{Algo: comp.Snappy, Op: comp.Compress}, {Algo: comp.ZStd, Op: comp.Compress},
		{Algo: comp.Snappy, Op: comp.Decompress}, {Algo: comp.ZStd, Op: comp.Decompress},
	}
	cells := make([]cell, len(units))
	for i, ao := range units {
		w, err := getWorkload(cfg, ao.Algo, ao.Op)
		if err != nil {
			return nil, err
		}
		cells[i] = cell{w, core.Config{Algo: ao.Algo}}
	}
	runs, err := runGrid(cells)
	if err != nil {
		return nil, err
	}
	speedup := map[fleet.AlgoOp]float64{}
	for i, ao := range units {
		speedup[ao] = cells[i].w.speedup(runs[i])
	}
	zstdC, zstdCRun := cells[1].w, runs[1] // units[1], ZStd compression

	// CPU savings: Snappy/ZStd calls (81% of (de)compression cycles) move to
	// CDPUs at the measured speedups; the fleet spends 2.9% of all cycles on
	// (de)compression.
	cs := fleet.CycleShares()
	offloadable := 0.0
	residual := 0.0
	for _, ao := range fleet.AllAlgoOps() { // fixed order: float sums must be reproducible
		if s, ok := speedup[ao]; ok {
			offloadable += cs[ao]
			residual += cs[ao] / s
		}
	}
	cpuSaved := fleet.FleetCompressionCycleFraction * (offloadable - residual)

	// Byte savings: compression bytes currently split between Snappy-class
	// output (fleet aggregate ratio 2.05) and ZStd-class; with CDPUs, Snappy
	// calls can move to the ZStd compressor's format at hardware ratio.
	bytes := fleet.OpByteShares(comp.Compress)
	curCompressed := 0.0
	for _, a := range comp.Algorithms {
		if share, ok := bytes[a]; ok {
			curCompressed += share / fleet.RatioFor(a, a.DefaultLevel())
		}
	}
	newCompressed := 0.0
	// Scale the fleet's ZStd aggregate by the measured hw/sw ratio factor.
	hwFleetZstdRatio := fleet.RatioFor(comp.ZStd, 3) * (zstdCRun.ratio / zstdC.swRatio)
	for _, a := range comp.Algorithms {
		share, ok := bytes[a]
		if !ok {
			continue
		}
		ratio := fleet.RatioFor(a, a.DefaultLevel())
		if !a.Heavyweight() {
			ratio = hwFleetZstdRatio // lightweight callers upgrade to the ZStd CDPU
		}
		newCompressed += share / ratio
	}
	byteSaving := 1 - newCompressed/curCompressed

	t := &Table{
		Title:   "Fleet deployment estimate: near-core CDPUs at measured speedups",
		Columns: []string{"quantity", "value", "basis"},
	}
	t.AddRow("offloadable (de)compression cycle share", pct(offloadable), "Snappy+ZStd rows of Fig.1")
	for _, ao := range units {
		t.AddRow(fmt.Sprintf("measured speedup %v-%v", ao.Algo, ao.Op), f2(speedup[ao])+"x", "DSE, RoCC 64K")
	}
	t.AddRow("fleet-wide CPU cycles saved", pct(cpuSaved), "of all fleet cycles (2.9% baseline)")
	t.AddRow("hw ZStd fleet-equivalent ratio", f2(hwFleetZstdRatio), "fleet 3.00 x measured hw/sw")
	t.AddRow("compressed-byte reduction if lightweight upgrades", pct(byteSaving), "storage/network bytes")
	return []*Table{t}, nil
}
