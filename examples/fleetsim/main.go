// fleetsim replays fleet-shaped (de)compression traffic for one service
// against simulated CDPU devices at several offered loads and placements:
// the end-to-end deployment picture — caller latency, device utilization,
// baseline Xeon cores retired, and silicon spent.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"cdpu/internal/cluster"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

func main() {
	calls := flag.Int("calls", 10000, "fleet calls to replay per load/placement cell")
	workers := flag.Int("workers", 0, "replay worker-pool size (default min(8, GOMAXPROCS-1), at least 1; results do not depend on it)")
	devices := flag.Int("devices", 0, "device instances per fleet slot (0/1 = historical 4-device fleet; fleet capacity and area scale with it)")
	seed := flag.Int64("seed", 11, "sampling seed")
	chaos := flag.Float64("chaos", 0, "fault-storm rate (0..1); >0 replays each cell under a seeded storm with the reference recovery policy and reports recovery counts")
	replicas := flag.Int("replicas", 1, "replica-group width per device slot; >1 dispatches through the cluster failover layer (area scales with width)")
	failover := flag.Float64("failover", 0, "device-lifecycle event rate (0..1) per replica-epoch; >0 replays each cell through replica groups under a seeded crash/hang/brownout storm with the reference failover policy")
	openloop := flag.Bool("openloop", false, "drive the fleet open-loop: seeded diurnal+bursty arrivals over a Zipf tenant population with per-class SLOs, priority admission, and queue-depth autoscaling, swept across offered rates")
	overload := flag.Bool("overload", false, "replay a 20x flash crowd over the head tenant band three ways: uncontrolled, width-pinned, and under the full overload control plane (per-tenant SLO burn alerting, deadline-aware admission, burn-driven autoscaling)")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON timeline of one traced replay here (chrome://tracing, Perfetto) instead of the sweep")
	metrics := flag.Bool("metrics", false, "dump the metrics registry to stderr after the run")
	flag.Parse()

	var err error
	switch {
	case *overload:
		err = runOverload(*seed, *calls, *workers, *devices, max(3, *replicas))
	case *openloop:
		err = runOpenLoop(*seed, *calls, *workers, *devices, max(1, *replicas))
	case *failover > 0:
		err = runFailover(*seed, *calls, *workers, *devices, *failover, max(2, *replicas))
	case *chaos > 0:
		err = runChaos(*seed, *calls, *workers, *devices, *chaos)
	case *traceOut != "":
		err = writeTrace(*traceOut, *seed, min(*calls, 500), *workers, *devices)
	default:
		err = runSweep(*seed, *calls, *workers, *devices, *replicas)
	}
	if err != nil {
		log.Fatal(err)
	}
	if *metrics {
		dumpMetrics()
	}
}

// runSweep is the healthy closed-loop replay: offered load by placement.
func runSweep(seed int64, calls, workers, devices, replicas int) error {
	fmt.Printf("service replay: %d fleet-sampled Snappy/ZStd calls through CDPU devices\n", calls)
	fmt.Printf("%-8s %-14s %10s %10s %12s %12s %10s\n",
		"GB/s", "placement", "mean-us", "p99-us", "sw-mean-us", "xeon-cores", "mm2")
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, placement := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
			r, err := sim.Run(sim.Config{
				Seed:        seed,
				Calls:       calls,
				OfferedGBps: load,
				Pipelines:   1,
				Placement:   placement,
				Workers:     workers,
				Replicas:    replicas,
				Devices:     devices,
			})
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

// runChaos replays the same load/placement sweep under a seeded fault storm
// with the reference recovery policy (retry + backoff, software fallback,
// quarantine, bounded admission queue): the graceful-degradation picture —
// how much goodput survives, what recovery each mechanism absorbed, and where
// the tail lands. The same seeds always produce the same table.
func runChaos(seed int64, calls, workers, devices int, rate float64) error {
	fmt.Printf("chaos replay: %d fleet calls per cell under a %.1f%% mixed fault storm\n", calls, rate*100)
	fmt.Printf("%-8s %-14s %9s %9s %9s %9s %9s %10s %10s\n",
		"GB/s", "placement", "faulted", "retries", "degraded", "shed", "quar", "goodput-MB", "p99-us")
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, placement := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
			r, err := sim.Run(sim.Config{
				Seed:        seed,
				Calls:       calls,
				OfferedGBps: load,
				Pipelines:   1,
				Placement:   placement,
				Workers:     workers,
				Devices:     devices,
				Resilience:  resil.ReferencePolicy(),
				Storm:       &fault.Storm{Seed: seed + 7, Rate: rate, MeanRepeats: 1},
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-8.1f %-14v %9d %9d %9d %9d %9d %10.1f %10.1f\n",
				load, placement, r.FaultedCalls, r.RetryAttempts, r.DegradedCalls,
				r.ShedCalls, r.Quarantines, float64(r.GoodputBytes)/(1<<20), r.P99LatencyUs)
		}
	}
	fmt.Println("\nEvery served byte is verified: faulted calls either succeed on a")
	fmt.Println("retried dispatch, complete on the checked software fallback, or are")
	fmt.Println("shed explicitly. Under the zero resil.Policy the first fault would")
	fmt.Println("abort the whole replay instead.")
	return nil
}

// runFailover replays the load/placement sweep through replica groups under a
// seeded device-lifecycle storm (crashes, hangs, brownouts) with the reference
// failover policy: per-replica circuit breakers, bounded failover hops with a
// re-dispatch penalty, hedged dispatch, and warm restarts. The table shows the
// cluster layer absorbing whole-device failures that would otherwise abort the
// replay or spill to the CPU fallback. The same seeds always produce the same
// table.
func runFailover(seed int64, calls, workers, devices int, rate float64, replicas int) error {
	// Unbounded admission, as in the failover-sweep experiment: every call
	// stays in play, so the table shows where it is served, not whether.
	pol := resil.ReferencePolicy()
	pol.MaxQueue = 0
	fmt.Printf("failover replay: %d fleet calls per cell, %d replicas per device slot, %.1f%% lifecycle storm\n",
		calls, replicas, rate*100)
	fmt.Printf("%-8s %-14s %9s %9s %9s %9s %9s %9s %10s %10s\n",
		"GB/s", "placement", "failover", "hedged", "wins", "opens", "restarts", "degraded", "goodput-MB", "p99-us")
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, placement := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
			r, err := sim.Run(sim.Config{
				Seed:        seed,
				Calls:       calls,
				OfferedGBps: load,
				Pipelines:   1,
				Placement:   placement,
				Workers:     workers,
				Devices:     devices,
				Resilience:  pol,
				Replicas:    replicas,
				Failover:    cluster.ReferenceFailoverPolicy(),
				Lifecycle:   &fault.Lifecycle{Seed: seed + 23, Rate: rate, EpochCalls: 64, MeanEventCalls: 24},
			})
			if err != nil {
				return err
			}
			fmt.Printf("%-8.1f %-14v %9d %9d %9d %9d %9d %9d %10.1f %10.1f\n",
				load, placement, r.Failovers, r.HedgedCalls, r.HedgeWins,
				r.BreakerOpens, r.ReplicaRestarts, r.DegradedCalls,
				float64(r.GoodputBytes)/(1<<20), r.P99LatencyUs)
		}
	}
	fmt.Println("\nCrashed and hung replicas fail over to healthy peers inside the")
	fmt.Println("group (the re-dispatch cost is charged into modeled latency);")
	fmt.Println("browned-out replicas serve slow and attract hedges instead of")
	fmt.Println("tripping breakers. Without the failover layer the same storm")
	fmt.Println("aborts the replay on its first all-replicas-down call.")
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
func runOpenLoop(seed int64, calls, workers, devices, replicas int) error {
	fmt.Printf("open-loop replay: %d arrivals per cell, Zipf s=0.7 tenants, 6x bursts", calls)
	var auto traffic.Autoscale
	if replicas > 1 {
		auto = traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4}
		fmt.Printf(", autoscaling 1..%d replicas", replicas)
	}
	fmt.Println()
	fmt.Printf("%-10s %7s %7s %7s %7s %9s %6s %6s %10s %10s\n",
		"calls/Mcyc", "shed-g", "shed-s", "shed-b", "slo-v", "goodput-MB", "ups", "downs", "mean-us", "p99-us")
	for _, rate := range []float64{1000, 3000, 6000, 12000} {
		r, err := sim.Run(sim.Config{
			Seed:         seed,
			Calls:        calls,
			MaxCallBytes: 64 << 10,
			Pipelines:    2,
			Workers:      workers,
			Devices:      devices,
			Replicas:     replicas,
			Resilience:   resil.Policy{MaxQueue: 32},
			Traffic: traffic.Pattern{
				CallsPerMcycle: rate,
				Diurnal:        []float64{1, 2},
				BurstFactor:    6,
				BurstOnCycles:  2e5,
				BurstOffCycles: 8e5,
			},
			Tenants:   traffic.Tenants{ZipfS: 0.7},
			Autoscale: auto,
		})
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

// runOverload replays one correlated flash crowd — a sampled band of head
// tenants multiplying their arrival rate 20x on top of a near-capacity base
// load, against tight per-class targets — through three fleets: uncontrolled
// (one pinned replica, class-differentiated admission only), width-pinned
// (the full replica budget, statically provisioned), and controlled (the
// overload control plane: per-tenant SLO burn tracking over the head ranks,
// deadline-aware admission that sheds calls that cannot meet their target,
// and a burn-driven autoscaler widening groups while tenants burn error
// budget). The same seeds always produce the same table.
func runOverload(seed int64, calls, workers, devices, replicas int) error {
	base := func() sim.Config {
		return sim.Config{
			Seed:         seed,
			Calls:        calls,
			MaxCallBytes: 64 << 10,
			Pipelines:    2,
			Workers:      workers,
			Devices:      devices,
			Resilience:   resil.Policy{MaxQueue: 32},
			Traffic: traffic.Pattern{
				CallsPerMcycle: 3000,
				FlashFactor:    20, FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: 0.05,
			},
			Tenants: traffic.Tenants{N: 64, ZipfS: 1.1},
			SLO:     traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}},
		}
	}
	controlled := base()
	controlled.Replicas = replicas
	controlled.Resilience.DeadlineFactor = 2
	controlled.Burn = traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6}
	controlled.Autoscale = traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5}
	pinned := base()
	pinned.Replicas = replicas

	fmt.Printf("overload replay: %d arrivals per fleet, 20x flash crowd over the top 5%% of %d tenants\n",
		calls, 64)
	fmt.Printf("%-14s %-9s %9s %7s %8s %7s %5s %6s %11s %8s\n",
		"fleet", "replicas", "gold-viol", "shed", "dl-shed", "alerts", "ups", "downs", "wasted-Mcyc", "p99-us")
	row := func(name, reps string, cfg sim.Config) error {
		r, err := sim.Run(cfg)
		if err != nil {
			return err
		}
		goldRate := 0.0
		if r.PerClass[0].Calls > 0 {
			goldRate = float64(r.PerClass[0].SLOViolations) / float64(r.PerClass[0].Calls)
		}
		fmt.Printf("%-14s %-9s %8.1f%% %7d %8d %7d %5d %6d %11.2f %8.1f\n",
			name, reps, goldRate*100, r.ShedCalls, r.DeadlineSheds, r.BurnAlerts,
			r.AutoscaleUps, r.AutoscaleDowns, r.WastedCycles/1e6, r.P99LatencyUs)
		return nil
	}
	if err := row("uncontrolled", "1", base()); err != nil {
		return err
	}
	if err := row("pinned-width", fmt.Sprint(replicas), pinned); err != nil {
		return err
	}
	if err := row("controlled", fmt.Sprintf("1..%d", replicas), controlled); err != nil {
		return err
	}
	fmt.Println("\nThe uncontrolled fleet serves the crowd late (gold violations) or")
	fmt.Println("sheds blindly at the queue bound. The controlled fleet sheds the")
	fmt.Println("calls that cannot meet their deadline before they waste device")
	fmt.Println("cycles, pages on per-tenant SLO burn, and widens replica groups")
	fmt.Println("while the burn lasts — holding gold close to the width-pinned")
	fmt.Println("fleet at a fraction of its standing silicon.")
	return nil
}

// writeTrace replays a small traced run and exports its per-block pipeline
// timeline as Chrome trace-event JSON: one process per device, one exec lane
// and one stream lane per pipeline. The call count is kept small so the file
// stays viewer-friendly.
func writeTrace(path string, seed int64, calls, workers, devices int) error {
	tr := obs.NewTrace(2.0)
	r, err := sim.Run(sim.Config{
		Seed:        seed,
		Calls:       calls,
		OfferedGBps: 2.0,
		Pipelines:   2,
		Placement:   memsys.RoCC,
		Workers:     workers,
		Devices:     devices,
		Trace:       tr,
	})
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("traced %d calls (mean %.1f us, p99 %.1f us): %d span events -> %s\n",
		r.Calls, r.MeanLatencyUs, r.P99LatencyUs, tr.Len(), path)
	fmt.Println("open in chrome://tracing or https://ui.perfetto.dev")
	return nil
}

func dumpMetrics() {
	fmt.Fprintln(os.Stderr, "# metrics registry")
	if err := obs.Default().WriteText(os.Stderr); err != nil {
		log.Fatal(err)
	}
}
