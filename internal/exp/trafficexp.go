package exp

// The openloop-sweep experiment drives the open-loop traffic layer
// (internal/traffic) through the full fleet replay: seeded modulated-Poisson
// arrivals over a Zipf-skewed tenant population, per-tenant SLO classes with
// priority admission, and the queue-depth replica autoscaler. The tables
// measure the hyperscale serving questions the closed-loop schedule cannot
// ask: where the shed/SLO-violation knee sits as offered rate climbs, how
// tenant skew concentrates traffic into the gold class, and what reactive
// autoscaling recovers after a burst versus fleets pinned at the minimum or
// maximum width. The sweep asserts its own invariants: zero shed at the
// lowest rate, shed and violations monotone non-decreasing in rate, bronze
// shed rate at or above gold at every overloaded point, gold call share
// monotone in Zipf s, and the autoscaler both scaling in both directions and
// beating the pinned-minimum fleet on shed and tail latency.

import (
	"fmt"

	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

// openLoopBase is the sweep's reference replay: bounded per-device queues
// (which default class-differentiated admission on) and a tenant skew that
// populates all three SLO classes.
func openLoopBase(cfg Config, rate float64) sim.Config {
	return sim.Config{
		Seed:         cfg.Seed,
		Calls:        cfg.ReplayCalls,
		MaxCallBytes: 64 << 10,
		Pipelines:    2,
		Workers:      Workers(),
		Devices:      cfg.Devices,
		Resilience:   resil.Policy{MaxQueue: 32},
		Traffic:      traffic.Pattern{CallsPerMcycle: rate},
		Tenants:      traffic.Tenants{ZipfS: 0.7},
	}
}

func runOpenLoopSweep(cfg Config) ([]*Table, error) {

	// Table 1: the rate knee. The ladder brackets the reference fleet's
	// capacity (~3000 calls/Mcycle on 4 slots x 2 pipelines at 64 KiB max
	// calls): no admission activity at the bottom, class-ordered shedding
	// past the knee.
	rates := []float64{1000, 3000, 6000, 12000}
	knee := &Table{
		Title: "Open-loop rate sweep: shed and SLO-violation knee",
		Note: fmt.Sprintf("%d calls per cell, MaxQueue 32, Zipf s=0.7; asserted: zero shed at the lowest "+
			"rate, shed and violations monotone non-decreasing in rate, bronze shed rate >= gold "+
			"wherever anything sheds.", cfg.ReplayCalls),
		Columns: []string{"calls/Mcyc", "shed", "shed-gold", "shed-silver", "shed-bronze",
			"slo-viol", "goodput-MB", "mean-us", "p99-us"},
	}
	prevShed, prevViol := 0, 0
	for i, rate := range rates {
		r, err := sim.Run(openLoopBase(cfg, rate))
		if err != nil {
			return nil, fmt.Errorf("openloop-sweep rate=%v: %w", rate, err)
		}
		if i == 0 && r.ShedCalls != 0 {
			return nil, fmt.Errorf("openloop-sweep: %d calls shed at the low-utilization rate %v", r.ShedCalls, rate)
		}
		if r.ShedCalls < prevShed {
			return nil, fmt.Errorf("openloop-sweep: shed fell from %d to %d at rate %v", prevShed, r.ShedCalls, rate)
		}
		if r.SLOViolations < prevViol {
			return nil, fmt.Errorf("openloop-sweep: violations fell from %d to %d at rate %v", prevViol, r.SLOViolations, rate)
		}
		prevShed, prevViol = r.ShedCalls, r.SLOViolations
		gold, bronze := r.PerClass[0], r.PerClass[traffic.NumClasses-1]
		if r.ShedCalls > 0 && gold.Calls > 0 && bronze.Calls > 0 {
			goldRate := float64(gold.ShedCalls) / float64(gold.Calls)
			bronzeRate := float64(bronze.ShedCalls) / float64(bronze.Calls)
			if bronzeRate < goldRate {
				return nil, fmt.Errorf("openloop-sweep rate=%v: bronze shed rate %.3f below gold %.3f",
					rate, bronzeRate, goldRate)
			}
		}
		knee.AddRow(fmt.Sprint(int(rate)), fmt.Sprint(r.ShedCalls),
			fmt.Sprint(gold.ShedCalls), fmt.Sprint(r.PerClass[1].ShedCalls), fmt.Sprint(bronze.ShedCalls),
			fmt.Sprint(r.SLOViolations), f1(float64(r.GoodputBytes)/(1<<20)),
			f1(r.MeanLatencyUs), f1(r.P99LatencyUs))
	}

	// Table 2: tenant skew. Gold is the top 1% of tenant ranks, so its call
	// share is a direct readout of Zipf concentration and must grow with s.
	skew := &Table{
		Title: "Tenant-skew sweep: Zipf s vs gold-class call share",
		Note: "Gold = top 1% of tenant ranks; asserted: gold call share monotone " +
			"non-decreasing in s (heavier skew concentrates traffic in head tenants).",
		Columns: []string{"zipf-s", "gold-calls", "silver-calls", "bronze-calls", "gold-share"},
	}
	prevShare := -1.0
	for _, s := range []float64{0.5, 0.9, 1.1} {
		c := openLoopBase(cfg, 1000)
		c.Tenants = traffic.Tenants{ZipfS: s}
		r, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("openloop-sweep zipf=%v: %w", s, err)
		}
		share := float64(r.PerClass[0].Calls) / float64(r.Calls)
		if share < prevShare {
			return nil, fmt.Errorf("openloop-sweep: gold share fell from %.3f to %.3f at s=%v", prevShare, share, s)
		}
		prevShare = share
		skew.AddRow(f2(s), fmt.Sprint(r.PerClass[0].Calls), fmt.Sprint(r.PerClass[1].Calls),
			fmt.Sprint(r.PerClass[2].Calls), pct(share))
	}

	// Table 3: autoscaling under on/off bursts. The autoscaled fleet must
	// scale in both directions and land between the pinned-minimum fleet
	// (which sheds through every burst) and the always-full fleet (which
	// never sheds more) on both shed count and tail latency.
	burst := func(replicas int, auto traffic.Autoscale) sim.Config {
		c := openLoopBase(cfg, 2000)
		// Bursts live on the cycle clock, so the replay needs enough calls to
		// span several on/off windows regardless of the configured scale.
		c.Calls = max(cfg.ReplayCalls, 1200)
		c.Replicas = replicas
		c.Traffic.BurstFactor = 6
		c.Traffic.BurstOnCycles = 2e5
		c.Traffic.BurstOffCycles = 8e5
		c.Autoscale = auto
		return c
	}
	auto := traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4}
	width := max(3, min(4, cfg.Replicas))
	scaled, err := sim.Run(burst(width, auto))
	if err != nil {
		return nil, fmt.Errorf("openloop-sweep autoscaled: %w", err)
	}
	pinned, err := sim.Run(burst(1, traffic.Autoscale{}))
	if err != nil {
		return nil, fmt.Errorf("openloop-sweep pinned-min: %w", err)
	}
	full, err := sim.Run(burst(width, traffic.Autoscale{}))
	if err != nil {
		return nil, fmt.Errorf("openloop-sweep full-width: %w", err)
	}
	if scaled.AutoscaleUps == 0 || scaled.AutoscaleDowns == 0 {
		return nil, fmt.Errorf("openloop-sweep: autoscaler did not scale both directions (ups %d, downs %d)",
			scaled.AutoscaleUps, scaled.AutoscaleDowns)
	}
	if scaled.ShedCalls >= pinned.ShedCalls {
		return nil, fmt.Errorf("openloop-sweep: autoscaled shed %d not below pinned-minimum %d",
			scaled.ShedCalls, pinned.ShedCalls)
	}
	// The bounded queue caps both fleets' tails, so P99 can tie; mean latency
	// must strictly improve and the tail must never worsen.
	if scaled.MeanLatencyUs >= pinned.MeanLatencyUs {
		return nil, fmt.Errorf("openloop-sweep: autoscaled mean %.1fus not below pinned-minimum %.1fus",
			scaled.MeanLatencyUs, pinned.MeanLatencyUs)
	}
	if scaled.P99LatencyUs > pinned.P99LatencyUs {
		return nil, fmt.Errorf("openloop-sweep: autoscaled P99 %.1fus above pinned-minimum %.1fus",
			scaled.P99LatencyUs, pinned.P99LatencyUs)
	}
	if full.ShedCalls > scaled.ShedCalls {
		return nil, fmt.Errorf("openloop-sweep: full-width fleet shed %d more than autoscaled %d",
			full.ShedCalls, scaled.ShedCalls)
	}
	autoTab := &Table{
		Title: fmt.Sprintf("Queue-depth autoscaling under 6x on/off bursts (up@%d, down@%d)",
			auto.UpQueueDepth, auto.DownQueueDepth),
		Note: "Asserted: the autoscaler scales both up and down, sheds less than the " +
			"pinned-minimum fleet with a strictly lower mean latency and a no-worse P99, " +
			"and never sheds less than the always-full fleet.",
		Columns: []string{"policy", "replicas", "ups", "downs", "shed", "slo-viol", "mean-us", "p99-us", "area-mm2"},
	}
	autoTab.AddRow("pinned-min", "1", "0", "0", fmt.Sprint(pinned.ShedCalls),
		fmt.Sprint(pinned.SLOViolations), f1(pinned.MeanLatencyUs), f1(pinned.P99LatencyUs), f1(pinned.AreaMM2))
	autoTab.AddRow("autoscaled", fmt.Sprintf("1..%d", width), fmt.Sprint(scaled.AutoscaleUps),
		fmt.Sprint(scaled.AutoscaleDowns), fmt.Sprint(scaled.ShedCalls),
		fmt.Sprint(scaled.SLOViolations), f1(scaled.MeanLatencyUs), f1(scaled.P99LatencyUs), f1(scaled.AreaMM2))
	autoTab.AddRow("always-full", fmt.Sprint(width), "0", "0", fmt.Sprint(full.ShedCalls),
		fmt.Sprint(full.SLOViolations), f1(full.MeanLatencyUs), f1(full.P99LatencyUs), f1(full.AreaMM2))

	return []*Table{knee, skew, autoTab}, nil
}
