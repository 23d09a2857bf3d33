// fleetsim replays fleet-shaped (de)compression traffic for one service
// against simulated CDPU devices at several offered loads and placements:
// the end-to-end deployment picture — caller latency, device utilization,
// baseline Xeon cores retired, and silicon spent.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

func main() {
	calls := flag.Int("calls", 10000, "fleet calls to replay per load/placement cell")
	workers := flag.Int("workers", 0, "replay worker-pool size (default min(8, GOMAXPROCS-1), at least 1; results do not depend on it)")
	devices := flag.Int("devices", 0, "device instances per fleet slot (0/1 = one per slot, a 4-device fleet; fleet capacity and area scale with it)")
	seed := flag.Int64("seed", 11, "sampling seed")
	replicas := flag.Int("replicas", 1, "replica-group width per device slot; >1 dispatches through the cluster failover layer (area scales with width)")
	openloop := flag.Bool("openloop", false, "drive the fleet open-loop: seeded diurnal+bursty arrivals over a Zipf tenant population with per-class SLOs, priority admission, and queue-depth autoscaling, swept across offered rates")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline of one traced replay here (chrome://tracing, Perfetto) instead of the sweep")
	metrics := flag.Bool("metrics", false, "dump the metrics registry to stderr after the run")
	flag.Parse()

	base := sim.Config{Seed: *seed, Calls: *calls, Workers: *workers, Devices: *devices, Replicas: *replicas}
	var err error
	switch {
	case *openloop:
		err = runOpenLoop(base)
	case *traceOut != "":
		err = writeTrace(*traceOut, base)
	default:
		err = runSweep(base)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *metrics {
		fmt.Fprintln(os.Stderr, "# metrics registry")
		if err := obs.Default().WriteText(os.Stderr); err != nil {
			log.Fatal(err)
		}
	}
}

// runSweep is the healthy closed-loop replay: offered load by placement.
func runSweep(cfg sim.Config) error {
	fmt.Printf("service replay: %d fleet-sampled Snappy/ZStd calls through CDPU devices\n", cfg.Calls)
	fmt.Printf("%-8s %-14s %10s %10s %12s %12s %10s\n",
		"GB/s", "placement", "mean-us", "p99-us", "sw-mean-us", "xeon-cores", "mm2")
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, placement := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
			cfg.OfferedGBps, cfg.Placement = load, placement
			r, err := sim.Run(cfg)
			if err != nil {
				return err
			}
			fmt.Printf("%-8.1f %-14v %10.1f %10.1f %12.1f %12.2f %10.2f\n",
				load, placement, r.MeanLatencyUs, r.P99LatencyUs,
				r.SoftwareMeanLatencyUs, r.XeonCoresNeeded, r.AreaMM2)
		}
	}
	fmt.Println("\nNear-core devices hold microsecond latencies until the load")
	fmt.Println("saturates a pipeline; the same devices across PCIe start with a")
	fmt.Println("latency floor hundreds of microseconds higher on small calls.")
	return nil
}

// runOpenLoop drives the fleet open-loop instead of by offered bandwidth: a
// seeded modulated-Poisson arrival process (diurnal curve plus on/off bursts)
// over a Zipf-skewed tenant population, each tenant bound to an SLO class
// (gold/silver/bronze) that sets its admission priority and latency target.
// With replicas > 1 a queue-depth autoscaler widens and drains each replica
// group through warm restarts as the bursts come and go. The sweep walks
// offered rate across the fleet's capacity knee; the same seeds always produce
// the same table.
func runOpenLoop(cfg sim.Config) error {
	fmt.Printf("open-loop replay: %d arrivals per cell, Zipf s=0.7 tenants, 6x bursts", cfg.Calls)
	if cfg.Replicas > 1 {
		cfg.Autoscale = traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4}
		fmt.Printf(", autoscaling 1..%d replicas", cfg.Replicas)
	}
	fmt.Println()
	fmt.Printf("%-10s %7s %7s %7s %7s %9s %6s %6s %10s %10s\n",
		"calls/Mcyc", "shed-g", "shed-s", "shed-b", "slo-v", "goodput-MB", "ups", "downs", "mean-us", "p99-us")
	cfg.MaxCallBytes, cfg.Pipelines, cfg.Resilience = 64<<10, 2, resil.Policy{MaxQueue: 32}
	cfg.Tenants = traffic.Tenants{ZipfS: 0.7}
	cfg.Traffic = traffic.Pattern{Diurnal: []float64{1, 2}, BurstFactor: 6, BurstOnCycles: 2e5, BurstOffCycles: 8e5}
	for _, rate := range []float64{1000, 3000, 6000, 12000} {
		cfg.Traffic.CallsPerMcycle = rate
		r, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("%-10d %7d %7d %7d %7d %9.1f %6d %6d %10.1f %10.1f\n",
			int(rate), r.PerClass[0].ShedCalls, r.PerClass[1].ShedCalls, r.PerClass[2].ShedCalls,
			r.SLOViolations, float64(r.GoodputBytes)/(1<<20),
			r.AutoscaleUps, r.AutoscaleDowns, r.MeanLatencyUs, r.P99LatencyUs)
	}
	fmt.Println("\nThe bounded queues shed bronze tenants first and gold last — even at")
	fmt.Println("low base rates the 6x bursts overrun the fleet briefly — and the")
	fmt.Println("autoscaler (with -replicas > 1) widens groups through the bursts and")
	fmt.Println("drains them in the quiet valleys.")
	return nil
}

// writeTrace replays a small traced run and exports its per-block pipeline
// timeline as Chrome trace-event JSON: one process per device, one exec lane
// and one stream lane per pipeline. The call count is kept at 500 or fewer so
// the file stays viewer-friendly.
func writeTrace(path string, cfg sim.Config) error {
	cfg.Calls, cfg.OfferedGBps, cfg.Pipelines, cfg.Placement = min(cfg.Calls, 500), 2.0, 2, memsys.RoCC
	cfg.Trace = obs.NewTrace(2.0)
	r, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("traced %d calls (mean %.1f us, p99 %.1f us): %d span events -> %s\n",
		r.Calls, r.MeanLatencyUs, r.P99LatencyUs, cfg.Trace.Len(), path)
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
	return nil
}
