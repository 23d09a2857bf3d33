package exp

// The replay experiments, each a list of sweeps for runSweeps (sweep.go).

import (
	"fmt"

	"cdpu/internal/cluster"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

// runFleetReplay sweeps offered load and placement through the sharded
// replay engine. The replay's worker pool is sized by the package worker
// setting (SetWorkers / cdpubench -workers); the numbers it reports are
// independent of that setting by construction.
func runFleetReplay(cfg Config) ([]*Table, error) {
	t := &sweep{
		title: "Service replay: fleet-sampled Snappy/ZStd calls on CDPU devices",
		note: fmt.Sprintf("%d calls per cell; single pipeline per direction; software column is the Xeon service-time lower bound.",
			cfg.ReplayCalls),
		cols: "GB/s placement mean-us p99-us sw-mean-us comp-util decomp-util xeon-cores mm2",
		base: replayBase(cfg),
	}
	for _, load := range []float64{0.5, 2.0, 6.0} {
		for _, p := range chaosPlacements {
			t.add(func(c *sim.Config) { c.OfferedGBps, c.Placement = load, p }, f1(load), p.String())
		}
	}
	return runSweeps(t)
}

// chaosTailBoundUs is the stated tail ceiling the sweep asserts: under mixed
// storms hitting up to 10% of calls, served-call P99 must stay below 100 ms.
// The ceiling is a constant — independent of call count — because admission
// control bounds the waiting queue at MaxQueue jobs, so queueing delay
// plateaus instead of growing with the replay; the dominant tail terms are
// watchdog detection charges (the cycle budget of the largest calls) plus
// the software-fallback service time. Observed P99 at a 10% storm is ~20 ms
// at either placement, an ~5x margin; the abort baseline has no ceiling at
// all, because it has no completed run.
const chaosTailBoundUs = 100000.0

// chaosPlacements are the two ends of the integration spectrum: near-core
// (cheap detection and reset) and across PCIe (link-dominated both).
var chaosPlacements = []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache}

// runChaosSweep drives the recovery layer (internal/resil) through the full
// fleet replay: seeded fault storms hit a stated fraction of calls with bit
// flips, memory faults and watchdog hangs, and the tables measure what each
// recovery mechanism — retry with backoff, software fallback, pipeline
// quarantine, admission control — buys over aborting on the first fault. No
// corrupt byte can surface: any would fail the replay's round-trip
// verification and error out.
func runChaosSweep(cfg Config) ([]*Table, error) {
	pol := resil.ReferencePolicy()
	base := replayBase(cfg)
	base.OfferedGBps, base.Pipelines, base.Resilience = 1.0, 2, pol

	// Sticky faults (mean two extra faulted dispatches) make retries both
	// succeed and exhaust into the fallback. Bit flips (rows 0 and 3) never
	// retry; every transiently faulted call retries at least once.
	anatomy := &sweep{
		title: "Recovery by fault kind (2% storm, sticky faults, full policy)",
		note: fmt.Sprintf("%d calls per cell; MaxAttempts=%d, backoff %g..%g cycles; "+
			"bit flips are non-transient and skip retries.",
			cfg.ReplayCalls, pol.MaxAttempts, pol.BackoffBaseCycles, pol.BackoffMaxCycles),
		cols:   "placement fault faulted retries degraded shed quar mean-us p99-us",
		base:   base,
		checks: []check{zero("retries", 0, 3), bound("faulted", "<=", same("retries"), 1, 2, 4, 5)},
	}

	// Rows 0 and 4, at rate 0, have nothing to recover from.
	tails := &sweep{
		title: "Bounded tails under mixed-kind storms (full policy)",
		note: fmt.Sprintf("%d calls per cell; asserted: goodput monotone non-increasing in rate, "+
			"P99 <= %.0f ms (admission control makes the ceiling call-count independent), "+
			"zero surfaced corruption.", cfg.ReplayCalls, chaosTailBoundUs/1000),
		cols: "placement rate goodput-MB faulted degraded shed quar mean-us p99-us",
		base: base,
		checks: []check{monotone("goodput-MB", false, 0), bound("p99-us", "<=", num(chaosTailBoundUs)),
			zero("faulted", 0, 4), zero("degraded", 0, 4), zero("shed", 0, 4)},
	}

	probe := &sweep{
		title:  "Quarantine probe (25% sticky transient storm, unbounded window)",
		note:   "QuarantineK=3 with an all-time window; asserted: at least one pipeline quarantined per placement.",
		cols:   "placement faulted retries degraded quar p99-us",
		base:   base,
		checks: []check{nonZero("quar")},
	}

	// The zero policy fails deterministically, on the lowest-index faulted
	// call, with whatever fault that call drew.
	abort := &sweep{
		title: "Abort-policy baseline under a 1% storm (must fail)",
		note:  "Zero resil.Policy reproduces the historical abort-on-first-fault behavior.",
		cols:  "placement",
		base:  base,
		abort: "*",
	}
	abort.base.Resilience = resil.Policy{}

	for _, p := range chaosPlacements {
		for _, kind := range fault.StormKinds {
			anatomy.add(func(c *sim.Config) {
				c.Placement = p
				c.Storm = &fault.Storm{Seed: cfg.Seed + 100, Rate: 0.02, Kinds: []fault.StormKind{kind}, MeanRepeats: 2}
			}, p.String(), kind.String())
		}
		for _, rate := range []float64{0, 0.01, 0.03, 0.10} {
			tails.add(func(c *sim.Config) {
				c.Placement = p
				if rate > 0 {
					c.Storm = &fault.Storm{Seed: cfg.Seed + 7, Rate: rate, MeanRepeats: 1}
				}
			}, p.String(), pct(rate))
		}
		probe.add(func(c *sim.Config) {
			c.Placement = p
			c.Resilience.QuarantineWindowCycles = 0 // all faults count forever
			c.Storm = &fault.Storm{Seed: cfg.Seed + 13, Rate: 0.25, MeanRepeats: 3,
				Kinds: []fault.StormKind{fault.StormMemFault, fault.StormWatchdog}}
		}, p.String())
		abort.add(func(c *sim.Config) {
			c.Placement = p
			c.Storm = &fault.Storm{Seed: cfg.Seed + 7, Rate: 0.01, MeanRepeats: 1}
		}, p.String())
	}
	return runSweeps(anatomy, tails, probe, abort)
}

// runFailoverSweep drives the cluster layer (internal/cluster) through the
// full fleet replay: each device slot becomes a replica group behind the
// deterministic failover dispatcher, and a seeded device-lifecycle storm
// crashes, hangs and browns out replicas mid-replay. The tables measure what
// replication buys — goodput held flat while replicas die, failover and
// hedging traffic, breaker-booked unavailability — against the single-device
// baseline and the no-failover abort baseline. Any corrupt byte would fail
// the replay's round-trip verification.
func runFailoverSweep(cfg Config) ([]*Table, error) {
	rp := resil.ReferencePolicy()
	// The scaling contract is about where traffic is served, not whether it
	// is admitted: an unbounded queue keeps every call in play, so goodput
	// always equals offered bytes and the replica count's whole effect shows
	// up as device-vs-fallback serving and latency.
	rp.MaxQueue = 0
	base := replayBase(cfg)
	base.OfferedGBps, base.Pipelines, base.Placement, base.Resilience = 1.0, 2, memsys.RoCC, rp
	base.Failover = cluster.ReferenceFailoverPolicy()

	// The reference lifecycle storm mixes crashes, hangs and brownouts over
	// short epochs so every replay — including the test-scale one — spans
	// several event windows per replica. Zero shed is goodput == offered;
	// device-served calls are those kept off the CPU fallback.
	scaling := &sweep{
		title: fmt.Sprintf("Replica scaling under a %s lifecycle storm (full failover policy)", pct(0.2)),
		note: fmt.Sprintf("%d calls per cell; asserted: zero aborts, zero surfaced corruption, "+
			"goodput == offered at every width, device-served calls monotone "+
			"non-decreasing in replicas.", cfg.ReplayCalls),
		cols:   "replicas goodput-MB dev-served degraded failovers hedged wins opens restarts unavail-Mcyc mean-us p99-us area-mm2",
		base:   base,
		checks: []check{zero("shed"), monotone("dev-served", true, -1), nonZero("failovers", cfg.Replicas-1)},
	}
	scaling.base.Lifecycle = &fault.Lifecycle{Seed: cfg.Seed + 23, Rate: 0.2, EpochCalls: 64, MeanEventCalls: 24}
	for replicas := 1; replicas <= cfg.Replicas; replicas++ {
		scaling.add(func(c *sim.Config) { c.Replicas = replicas }, fmt.Sprint(replicas))
	}

	// Row 0 is the storm-free baseline, rows 1-3 crash, hang and brownout.
	width := min(3, cfg.Replicas)
	anatomy := &sweep{
		title: fmt.Sprintf("Lifecycle anatomy by fault kind (replicas=%d, %s of cells)", width, pct(0.3)),
		note: "Asserted: crash and hang storms drive failovers; a brownout-only storm " +
			"opens no breaker (degraded service is not failure) but does degrade mean latency.",
		cols:   "kind failovers hedged opens restarts degraded mean-us p99-us",
		base:   base,
		checks: []check{nonZero("failovers", 1, 2), zero("opens", 3), bound("mean-us", ">", at(0, "mean-us"), 3)},
	}
	anatomy.base.Replicas = width
	anatomy.add(nil, "none")
	for _, kind := range []fault.LifeKind{fault.LifeCrash, fault.LifeHang, fault.LifeBrownout} {
		anatomy.add(func(c *sim.Config) {
			c.Lifecycle = &fault.Lifecycle{Seed: cfg.Seed + 31, Rate: 0.3, Kinds: []fault.LifeKind{kind}, EpochCalls: 64, MeanEventCalls: 16}
		}, kind.String())
	}

	abort := &sweep{
		title: "No-failover baseline under a crash storm (must fail)",
		note:  "Zero FailoverPolicy and no fallback: the first all-replicas-down call aborts the replay.",
		cols:  "replicas",
		base:  base,
		abort: "replica-down",
	}
	abort.add(func(c *sim.Config) {
		c.Resilience, c.Failover, c.Replicas = resil.Policy{}, cluster.FailoverPolicy{}, 2
		c.Lifecycle = &fault.Lifecycle{Seed: cfg.Seed + 23, Rate: 1, Kinds: []fault.LifeKind{fault.LifeCrash},
			EpochCalls: 32, MeanEventCalls: 1 << 20}
	}, "2")
	return runSweeps(scaling, anatomy, abort)
}

// runOpenLoopSweep drives the open-loop traffic layer (internal/traffic)
// through the full fleet replay: seeded modulated-Poisson arrivals over a
// Zipf-skewed tenant population, per-tenant SLO classes with priority
// admission, and the queue-depth replica autoscaler. The tables measure the
// hyperscale serving questions the closed-loop schedule cannot ask: where the
// shed/SLO-violation knee sits as offered rate climbs, how tenant skew
// concentrates traffic into the gold class, and what reactive autoscaling
// recovers after a burst versus fleets pinned at the minimum or maximum
// width.
func runOpenLoopSweep(cfg Config) ([]*Table, error) {
	// The reference replay: bounded per-device queues (which default
	// class-differentiated admission on) and a tenant skew that populates all
	// three SLO classes.
	base := replayBase(cfg)
	base.MaxCallBytes, base.Pipelines, base.Resilience = 64<<10, 2, resil.Policy{MaxQueue: 32}
	base.Traffic, base.Tenants = traffic.Pattern{CallsPerMcycle: 1000}, traffic.Tenants{ZipfS: 0.7}

	// The rate ladder brackets the reference fleet's capacity (~3000
	// calls/Mcycle on 4 slots x 2 pipelines at 64 KiB max calls).
	knee := &sweep{
		title: "Open-loop rate sweep: shed and SLO-violation knee",
		note: fmt.Sprintf("%d calls per cell, MaxQueue 32, Zipf s=0.7; asserted: zero shed at the lowest "+
			"rate, shed and violations monotone non-decreasing in rate, bronze shed rate >= gold "+
			"wherever anything sheds.", cfg.ReplayCalls),
		cols: "calls/Mcyc shed shed-gold shed-silver shed-bronze slo-viol goodput-MB mean-us p99-us",
		base: base,
		checks: []check{zero("shed", 0), monotone("shed", true, -1), monotone("slo-viol", true, -1),
			bound("gold-shed-rate", "<=", same("bronze-shed-rate"))},
	}
	for _, rate := range []float64{1000, 3000, 6000, 12000} {
		knee.add(func(c *sim.Config) { c.Traffic.CallsPerMcycle = rate }, fmt.Sprint(int(rate)))
	}

	skew := &sweep{
		title: "Tenant-skew sweep: Zipf s vs gold-class call share",
		note: "Gold = top 1% of tenant ranks; asserted: gold call share monotone " +
			"non-decreasing in s (heavier skew concentrates traffic in head tenants).",
		cols:   "zipf-s gold-calls silver-calls bronze-calls gold-share",
		base:   base,
		checks: []check{monotone("gold-share", true, -1)},
	}
	for _, s := range []float64{0.5, 0.9, 1.1} {
		skew.add(func(c *sim.Config) { c.Tenants.ZipfS = s }, f2(s))
	}

	// The autoscaled fleet (row 1) lands between the pinned-minimum fleet
	// (row 0) and the always-full one (row 2). The bounded queue caps both
	// fleets' tails, so P99 can tie with row 0's.
	auto := traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4}
	width := max(3, min(4, cfg.Replicas))
	autoTab := &sweep{
		title: fmt.Sprintf("Queue-depth autoscaling under 6x on/off bursts (up@%d, down@%d)",
			auto.UpQueueDepth, auto.DownQueueDepth),
		note: "Asserted: the autoscaler scales both up and down, sheds less than the " +
			"pinned-minimum fleet with a strictly lower mean latency and a no-worse P99, " +
			"and never sheds less than the always-full fleet.",
		cols: "policy replicas ups downs shed slo-viol mean-us p99-us area-mm2",
		base: base,
		checks: []check{nonZero("ups", 1), nonZero("downs", 1), bound("shed", ">", at(1, "shed"), 0),
			bound("mean-us", ">", at(1, "mean-us"), 0), bound("p99-us", "<=", at(0, "p99-us"), 1), bound("shed", "<=", at(1, "shed"), 2)},
	}
	// Bursts live on the cycle clock, so the replay needs enough calls to
	// span several on/off windows regardless of the configured scale.
	autoTab.base.Calls = max(cfg.ReplayCalls, 1200)
	autoTab.base.Traffic = traffic.Pattern{CallsPerMcycle: 2000, BurstFactor: 6, BurstOnCycles: 2e5, BurstOffCycles: 8e5}
	autoTab.add(nil, "pinned-min", "1")
	autoTab.add(func(c *sim.Config) { c.Replicas, c.Autoscale = width, auto }, "autoscaled", fmt.Sprintf("1..%d", width))
	autoTab.add(func(c *sim.Config) { c.Replicas = width }, "always-full", fmt.Sprint(width))
	return runSweeps(knee, skew, autoTab)
}

// goldViolationCeiling is the controlled fleet's SLO floor: the gold class
// may see at most this fraction of its calls violate the latency target
// during the flash crowd. The uncontrolled fleet must land above it — the
// sweep's headline graceful-degradation assertion.
const goldViolationCeiling = 0.10

// runOverloadSweep drives the overload control plane through a correlated
// flash crowd: a sampled band of head tenants multiplying their arrival rate
// on top of an already-loaded fleet. It measures the three reactions the
// plane composes — burn-driven replica autoscaling, deadline-aware
// admission, and per-tenant SLO burn alerting — against fleets that lack
// them.
func runOverloadSweep(cfg Config) ([]*Table, error) {
	// The reference flash-crowd replay: base rate near the single-width
	// fleet's capacity, a 20x crowd over the top tenant band, tight per-class
	// targets, and a small heavily-skewed tenant population so per-tenant burn
	// windows accumulate meaningful sample counts. Flash windows live on the
	// cycle clock, so the replay needs enough calls to span several on/off
	// periods regardless of configured scale.
	base := replayBase(cfg)
	base.Calls = max(cfg.ReplayCalls, 1400)
	base.MaxCallBytes, base.Pipelines, base.Resilience = 64<<10, 2, resil.Policy{MaxQueue: 32}
	base.Traffic = traffic.Pattern{CallsPerMcycle: 3000, FlashFactor: 20, FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: 0.05}
	base.Tenants = traffic.Tenants{N: 64, ZipfS: 1.1}
	base.SLO = traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}}
	burn := traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6}

	// Same flash crowd, three fleets: uncontrolled (row 0: one pinned
	// replica, class shed only), width-pinned (full width but static), and
	// controlled (row 2: burn-driven autoscaling plus deadline admission over
	// the same maximum width).
	width := max(3, min(4, cfg.Replicas))
	headline := &sweep{
		title: "Flash-crowd control: 20x crowd over the head tenant band",
		note: fmt.Sprintf("Asserted: controlled gold violation rate <= %.2f while uncontrolled exceeds it, "+
			"the burn autoscaler scales up through the crowd, and burn alerts fire.", goldViolationCeiling),
		cols: "fleet replicas gold-viol-rate shed deadline-shed burn-alerts ups wasted-Mcyc p99-us",
		base: base,
		checks: []check{bound("gold-viol-rate", ">", num(goldViolationCeiling), 0), bound("gold-viol-rate", "<=", num(goldViolationCeiling), 2),
			nonZero("ups", 2), nonZero("burn-alerts", 2)},
	}
	headline.add(nil, "uncontrolled", "1")
	headline.add(func(c *sim.Config) { c.Replicas = width }, "pinned-width", fmt.Sprint(width))
	headline.add(func(c *sim.Config) {
		c.Replicas, c.Resilience.DeadlineFactor, c.Burn = width, 2, burn
		c.Autoscale = traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5}
	}, "controlled", fmt.Sprintf("1..%d", width))

	// Deadline admission in isolation, on the uncontrolled single-width fleet
	// where queueing delay makes calls hopeless; row 0 is class-only.
	dl := &sweep{
		title: "Deadline-aware admission: wasted device cycles vs admission factor",
		note: "Factor 0 is class-only admission. Asserted: every finite factor sheds on " +
			"deadline and strictly reduces the cycles spent serving already-late calls; " +
			"tighter factors shed at least as many calls on deadline.",
		cols: "factor deadline-shed shed wasted-Mcyc goodput-MB p99-us",
		base: base,
		checks: []check{nonZero("deadline-shed", 1, 2, 3), bound("wasted-Mcyc", "<", at(0, "wasted-Mcyc"), 1, 2, 3),
			monotone("deadline-shed", true, -1)},
	}
	dl.add(nil, "off")
	for _, factor := range []float64{3, 2, 1.5} {
		dl.add(func(c *sim.Config) { c.Resilience.DeadlineFactor = factor }, f1(factor))
	}

	// Alerts page on harm, not on traffic, so the healthy fleet is genuinely
	// healthy: a fleet whose gold target sits below the raw service time of
	// its largest calls is burning by definition, and the tracker rightly
	// pages on it — the stress rows lean on exactly that tightness.
	alerts := &sweep{
		title: "Per-tenant SLO burn alerting: flash crowd vs healthy steady load",
		note: "Same fleet, same tracker; the healthy row removes the crowd, drops the base " +
			"rate to a comfortably under-capacity load, and grades against attainable " +
			"targets. Asserted: alerts fire with the crowd and stay zero on the healthy " +
			"fleet.",
		cols:   "traffic burn-alerts alerts-gold alerts-silver alerts-bronze shed",
		base:   base,
		checks: []check{nonZero("burn-alerts", 0), zero("burn-alerts", 1)},
	}
	alerts.base.Burn = burn
	alerts.add(nil, "flash-crowd")
	alerts.add(func(c *sim.Config) {
		c.Traffic = traffic.Pattern{CallsPerMcycle: 1000}
		c.SLO = traffic.SLO{TargetUs: [traffic.NumClasses]float64{50, 200, 800}}
	}, "healthy")
	return runSweeps(headline, dl, alerts)
}
