package exp

// The failover-sweep experiment drives the cluster layer (internal/cluster)
// through the full fleet replay: each device slot becomes a replica group
// behind the deterministic failover dispatcher, and a seeded device-lifecycle
// storm crashes, hangs and browns out replicas mid-replay. The tables measure
// what replication buys — goodput held flat while replicas die, failover and
// hedging traffic, breaker-booked unavailability — against the single-device
// baseline and the no-failover abort baseline. The sweep asserts its own
// invariants: zero aborts and zero surfaced corruption with failover on (any
// corrupt byte would fail the replay's round-trip verification), goodput
// monotone non-decreasing in replica count, brownouts never tripping a
// breaker (degraded service is not failure), and the same storm without
// failover demonstrably killing the run.

import (
	"errors"
	"fmt"

	"cdpu/internal/cluster"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
)

// failoverLifecycle is the sweep's reference storm: 20% of (replica, epoch)
// cells carry an event, mixing crashes, hangs and brownouts over short
// epochs so every replay — including the test-scale one — spans several
// event windows per replica.
func failoverLifecycle(seed int64) *fault.Lifecycle {
	return &fault.Lifecycle{
		Seed:           seed + 23,
		Rate:           0.2,
		EpochCalls:     64,
		MeanEventCalls: 24,
	}
}

func runFailoverSweep(cfg Config) ([]*Table, error) {
	pol := cluster.ReferenceFailoverPolicy()
	base := func(replicas int) sim.Config {
		rp := resil.ReferencePolicy()
		// The scaling contract is about where traffic is served, not whether
		// it is admitted: an unbounded queue keeps every call in play, so
		// goodput always equals offered bytes and the replica count's whole
		// effect shows up as device-vs-fallback serving and latency.
		rp.MaxQueue = 0
		return sim.Config{
			Seed:        cfg.Seed,
			Calls:       cfg.ReplayCalls,
			OfferedGBps: 1.0,
			Pipelines:   2,
			Placement:   memsys.RoCC,
			Workers:     Workers(),
			Devices:     cfg.Devices,
			Resilience:  rp,
			Replicas:    replicas,
			Failover:    pol,
			Lifecycle:   failoverLifecycle(cfg.Seed),
		}
	}

	// Table 1: replica scaling under the reference lifecycle storm. The
	// contract rows: the run completes (zero aborts, zero surfaced
	// corruption) at every width, goodput never falls below the previous
	// width's, and device-served calls — traffic kept on the accelerators
	// instead of spilling to the CPU fallback — are monotone non-decreasing
	// in replica count.
	scaling := &Table{
		Title: fmt.Sprintf("Replica scaling under a %s lifecycle storm (full failover policy)", pct(0.2)),
		Note: fmt.Sprintf("%d calls per cell; asserted: zero aborts, zero surfaced corruption, "+
			"goodput == offered at every width, device-served calls monotone "+
			"non-decreasing in replicas.", cfg.ReplayCalls),
		Columns: []string{"replicas", "goodput-MB", "dev-served", "degraded", "failovers", "hedged",
			"wins", "opens", "restarts", "unavail-Mcyc", "mean-us", "p99-us", "area-mm2"},
	}
	prevGoodput := -1
	prevServed := -1
	totalFailovers := 0
	for replicas := 1; replicas <= cfg.Replicas; replicas++ {
		r, err := sim.Run(base(replicas))
		if err != nil {
			return nil, fmt.Errorf("failover-sweep replicas=%d: %w", replicas, err)
		}
		if r.ShedCalls != 0 || r.GoodputBytes != r.UncompressedBytes {
			return nil, fmt.Errorf("failover-sweep replicas=%d: lost traffic (goodput %d / offered %d, shed %d)",
				replicas, r.GoodputBytes, r.UncompressedBytes, r.ShedCalls)
		}
		if r.GoodputBytes < prevGoodput {
			return nil, fmt.Errorf("failover-sweep: goodput fell from %d to %d bytes at replicas=%d",
				prevGoodput, r.GoodputBytes, replicas)
		}
		served := r.Calls - r.DegradedCalls - r.ShedCalls
		if served < prevServed {
			return nil, fmt.Errorf("failover-sweep: device-served calls fell from %d to %d at replicas=%d",
				prevServed, served, replicas)
		}
		prevGoodput = r.GoodputBytes
		prevServed = served
		totalFailovers += r.Failovers
		scaling.AddRow(fmt.Sprint(replicas),
			f1(float64(r.GoodputBytes)/(1<<20)), fmt.Sprint(served), fmt.Sprint(r.DegradedCalls),
			fmt.Sprint(r.Failovers), fmt.Sprint(r.HedgedCalls), fmt.Sprint(r.HedgeWins),
			fmt.Sprint(r.BreakerOpens), fmt.Sprint(r.ReplicaRestarts),
			f2(r.UnavailableCycles/1e6), f1(r.MeanLatencyUs), f1(r.P99LatencyUs),
			f1(r.AreaMM2))
	}
	if totalFailovers == 0 {
		return nil, fmt.Errorf("failover-sweep: lifecycle storm drove no failovers at any width")
	}

	// Table 2: lifecycle anatomy per fault kind at a fixed width, against the
	// storm-free baseline. Crashes and hangs must drive failovers; brownouts
	// must not — degraded bandwidth is served, not failed, so a brownout-only
	// storm may open no breaker and hop no replica.
	kinds := []fault.LifeKind{fault.LifeCrash, fault.LifeHang, fault.LifeBrownout}
	width := min(3, cfg.Replicas)
	healthyCfg := base(width)
	healthyCfg.Lifecycle = nil
	healthy, err := sim.Run(healthyCfg)
	if err != nil {
		return nil, fmt.Errorf("failover-sweep healthy baseline: %w", err)
	}
	anatomy := &Table{
		Title: fmt.Sprintf("Lifecycle anatomy by fault kind (replicas=%d, %s of cells)", width, pct(0.3)),
		Note: "Asserted: crash and hang storms drive failovers; a brownout-only storm " +
			"opens no breaker (degraded service is not failure) but does degrade mean latency.",
		Columns: []string{"kind", "failovers", "hedged", "opens", "restarts", "degraded", "mean-us", "p99-us"},
	}
	anatomy.AddRow("none", fmt.Sprint(healthy.Failovers), fmt.Sprint(healthy.HedgedCalls),
		fmt.Sprint(healthy.BreakerOpens), fmt.Sprint(healthy.ReplicaRestarts),
		fmt.Sprint(healthy.DegradedCalls), f1(healthy.MeanLatencyUs), f1(healthy.P99LatencyUs))
	for _, kind := range kinds {
		c := base(width)
		c.Lifecycle = &fault.Lifecycle{
			Seed:           cfg.Seed + 31,
			Rate:           0.3,
			Kinds:          []fault.LifeKind{kind},
			EpochCalls:     64,
			MeanEventCalls: 16,
		}
		r, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("failover-sweep anatomy %v: %w", kind, err)
		}
		switch kind {
		case fault.LifeBrownout:
			if r.BreakerOpens != 0 {
				return nil, fmt.Errorf("failover-sweep: brownout-only storm opened %d breakers", r.BreakerOpens)
			}
			if r.MeanLatencyUs <= healthy.MeanLatencyUs {
				return nil, fmt.Errorf("failover-sweep: brownout-only storm did not degrade mean latency (%.2f <= %.2f us)",
					r.MeanLatencyUs, healthy.MeanLatencyUs)
			}
		default:
			if r.Failovers == 0 {
				return nil, fmt.Errorf("failover-sweep: %v-only storm drove no failovers", kind)
			}
		}
		anatomy.AddRow(kind.String(), fmt.Sprint(r.Failovers), fmt.Sprint(r.HedgedCalls),
			fmt.Sprint(r.BreakerOpens), fmt.Sprint(r.ReplicaRestarts),
			fmt.Sprint(r.DegradedCalls), f1(r.MeanLatencyUs), f1(r.P99LatencyUs))
	}

	// Table 3: the abort baseline. The same crash storm without failover
	// headroom or software fallback must kill the run on its lowest failing
	// call — exactly the outage replication exists to absorb.
	abort := &Table{
		Title:   "No-failover baseline under a crash storm (must fail)",
		Note:    "Zero FailoverPolicy and no fallback: the first all-replicas-down call aborts the replay.",
		Columns: []string{"replicas", "outcome", "abort reason"},
	}
	c := sim.Config{
		Seed:        cfg.Seed,
		Calls:       cfg.ReplayCalls,
		OfferedGBps: 1.0,
		Pipelines:   2,
		Placement:   memsys.RoCC,
		Workers:     Workers(),
		Devices:     cfg.Devices,
		Resilience:  resil.Policy{},
		Replicas:    2,
		Lifecycle: &fault.Lifecycle{
			Seed:           cfg.Seed + 23,
			Rate:           1,
			Kinds:          []fault.LifeKind{fault.LifeCrash},
			EpochCalls:     32,
			MeanEventCalls: 1 << 20,
		},
	}
	if _, err := sim.Run(c); err == nil {
		return nil, fmt.Errorf("failover-sweep: no-failover baseline survived the crash storm")
	} else {
		var derr *core.DeviceError
		if !errors.As(err, &derr) {
			return nil, fmt.Errorf("failover-sweep: abort surfaced a non-device error: %w", err)
		}
		if derr.Reason != "replica-down" {
			return nil, fmt.Errorf("failover-sweep: abort reason %q, want replica-down", derr.Reason)
		}
		abort.AddRow("2", "aborted", derr.Reason)
	}

	return []*Table{scaling, anatomy, abort}, nil
}
