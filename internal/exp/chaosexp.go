package exp

// The chaos-sweep experiment drives the recovery layer (internal/resil)
// through the full fleet replay: seeded fault storms hit a stated fraction of
// calls with bit flips, memory faults and watchdog hangs, and the tables
// measure what each recovery mechanism — retry with backoff, software
// fallback, pipeline quarantine, admission control — buys over aborting on the
// first fault. The sweep asserts its own invariants: no corrupt bytes ever
// surface (any would fail the replay's round-trip verification and error out),
// goodput is monotone non-increasing in fault rate, tail latency stays within
// the stated bound of the healthy replay, and the abort-policy baseline
// demonstrably does not survive the same storm.

import (
	"errors"
	"fmt"

	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
)

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

func runChaosSweep(cfg Config) ([]*Table, error) {
	pol := resil.ReferencePolicy()
	base := func(p memsys.Placement) sim.Config {
		return sim.Config{
			Seed:        cfg.Seed,
			Calls:       cfg.ReplayCalls,
			OfferedGBps: 1.0,
			Pipelines:   2,
			Placement:   p,
			Workers:     Workers(),
			Devices:     cfg.Devices,
		}
	}

	// Table 1: recovery anatomy per fault kind at a 2% storm with sticky
	// faults (mean two extra faulted dispatches), so retries both succeed and
	// exhaust into the fallback.
	anatomy := &Table{
		Title: "Recovery by fault kind (2% storm, sticky faults, full policy)",
		Note: fmt.Sprintf("%d calls per cell; MaxAttempts=%d, backoff %g..%g cycles; "+
			"bit flips are non-transient and skip retries.",
			cfg.ReplayCalls, pol.MaxAttempts, pol.BackoffBaseCycles, pol.BackoffMaxCycles),
		Columns: []string{"placement", "fault", "faulted", "retries", "degraded", "shed", "quar", "mean-us", "p99-us"},
	}
	for _, p := range chaosPlacements {
		for _, kind := range fault.StormKinds {
			c := base(p)
			c.Resilience = pol
			c.Storm = &fault.Storm{Seed: cfg.Seed + 100, Rate: 0.02,
				Kinds: []fault.StormKind{kind}, MeanRepeats: 2}
			r, err := sim.Run(c)
			if err != nil {
				return nil, fmt.Errorf("chaos-sweep %v/%v: %w", p, kind, err)
			}
			if kind == fault.StormBitFlip && r.RetryAttempts > 0 {
				return nil, fmt.Errorf("chaos-sweep %v: %d retries on non-transient bit flips", p, r.RetryAttempts)
			}
			if kind != fault.StormBitFlip && r.FaultedCalls > 0 && r.RetryAttempts == 0 {
				return nil, fmt.Errorf("chaos-sweep %v/%v: transient faults drew no retries", p, kind)
			}
			anatomy.AddRow(p.String(), kind.String(),
				fmt.Sprint(r.FaultedCalls), fmt.Sprint(r.RetryAttempts),
				fmt.Sprint(r.DegradedCalls), fmt.Sprint(r.ShedCalls),
				fmt.Sprint(r.Quarantines), f1(r.MeanLatencyUs), f1(r.P99LatencyUs))
		}
	}

	// Table 2: mixed-kind rate sweep. The experiment's contract rows: goodput
	// monotone non-increasing in fault rate and served-call P99 within the
	// stated factor of healthy.
	rates := []float64{0, 0.01, 0.03, 0.10}
	tails := &Table{
		Title: "Bounded tails under mixed-kind storms (full policy)",
		Note: fmt.Sprintf("%d calls per cell; asserted: goodput monotone non-increasing in rate, "+
			"P99 <= %.0f ms (admission control makes the ceiling call-count independent), "+
			"zero surfaced corruption.", cfg.ReplayCalls, chaosTailBoundUs/1000),
		Columns: []string{"placement", "rate", "goodput-MB", "faulted", "degraded", "shed", "quar", "mean-us", "p99-us"},
	}
	for _, p := range chaosPlacements {
		var healthyP99 float64
		prevGoodput := 0
		for ri, rate := range rates {
			c := base(p)
			c.Resilience = pol
			if rate > 0 {
				c.Storm = &fault.Storm{Seed: cfg.Seed + 7, Rate: rate, MeanRepeats: 1}
			}
			r, err := sim.Run(c)
			if err != nil {
				return nil, fmt.Errorf("chaos-sweep %v rate %.2f: %w", p, rate, err)
			}
			if ri == 0 {
				healthyP99 = r.P99LatencyUs
				if r.FaultedCalls != 0 || r.DegradedCalls != 0 || r.ShedCalls != 0 {
					return nil, fmt.Errorf("chaos-sweep %v: healthy run reports recovery events: %+v", p, r)
				}
			} else if r.GoodputBytes > prevGoodput {
				return nil, fmt.Errorf("chaos-sweep %v: goodput rose with fault rate %.2f (%d > %d bytes)",
					p, rate, r.GoodputBytes, prevGoodput)
			}
			prevGoodput = r.GoodputBytes
			if r.P99LatencyUs > chaosTailBoundUs {
				return nil, fmt.Errorf("chaos-sweep %v rate %.2f: p99 %.1f us blows the %.0f us ceiling (healthy %.1f us)",
					p, rate, r.P99LatencyUs, chaosTailBoundUs, healthyP99)
			}
			tails.AddRow(p.String(), pct(rate),
				f1(float64(r.GoodputBytes)/(1<<20)),
				fmt.Sprint(r.FaultedCalls), fmt.Sprint(r.DegradedCalls),
				fmt.Sprint(r.ShedCalls), fmt.Sprint(r.Quarantines),
				f1(r.MeanLatencyUs), f1(r.P99LatencyUs))
		}
	}

	// Table 3: quarantine probe. A brutal storm of sticky transient faults
	// with an unbounded fault window must trip pipeline quarantine; capacity
	// degrades instead of the run failing.
	probe := &Table{
		Title:   "Quarantine probe (25% sticky transient storm, unbounded window)",
		Note:    "QuarantineK=3 with an all-time window; asserted: at least one pipeline quarantined per placement.",
		Columns: []string{"placement", "faulted", "retries", "degraded", "quar", "p99-us"},
	}
	for _, p := range chaosPlacements {
		c := base(p)
		qpol := pol
		qpol.QuarantineWindowCycles = 0 // all faults count forever
		c.Resilience = qpol
		c.Storm = &fault.Storm{Seed: cfg.Seed + 13, Rate: 0.25, MeanRepeats: 3,
			Kinds: []fault.StormKind{fault.StormMemFault, fault.StormWatchdog}}
		r, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("chaos-sweep quarantine probe %v: %w", p, err)
		}
		if r.Quarantines == 0 {
			return nil, fmt.Errorf("chaos-sweep %v: 25%% sticky storm tripped no quarantine", p)
		}
		probe.AddRow(p.String(), fmt.Sprint(r.FaultedCalls), fmt.Sprint(r.RetryAttempts),
			fmt.Sprint(r.DegradedCalls), fmt.Sprint(r.Quarantines), f1(r.P99LatencyUs))
	}

	// Table 4: the abort baseline. The same 1% mixed storm under the zero
	// policy must fail — deterministically, on the lowest-index faulted call —
	// which is exactly the behavior the recovery layer exists to replace.
	abort := &Table{
		Title:   "Abort-policy baseline under a 1% storm (must fail)",
		Note:    "Zero resil.Policy reproduces the historical abort-on-first-fault behavior.",
		Columns: []string{"placement", "outcome", "abort reason"},
	}
	for _, p := range chaosPlacements {
		c := base(p)
		c.Storm = &fault.Storm{Seed: cfg.Seed + 7, Rate: 0.01, MeanRepeats: 1}
		_, err := sim.Run(c)
		if err == nil {
			return nil, fmt.Errorf("chaos-sweep %v: abort baseline survived the storm", p)
		}
		var derr *core.DeviceError
		if !errors.As(err, &derr) {
			return nil, fmt.Errorf("chaos-sweep %v: abort surfaced a non-device error: %w", p, err)
		}
		abort.AddRow(p.String(), "aborted", derr.Reason)
	}

	return []*Table{anatomy, tails, probe, abort}, nil
}
