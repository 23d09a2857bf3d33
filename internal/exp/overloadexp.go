package exp

// The overload-sweep experiment drives the overload control plane through a
// correlated flash crowd: a sampled band of head tenants multiplying their
// arrival rate on top of an already-loaded fleet. It measures the three
// reactions the plane composes — burn-driven replica autoscaling, deadline-
// aware admission, and per-tenant SLO burn alerting — against fleets that
// lack them. The sweep asserts its own invariants: the controlled fleet holds
// the gold class's SLO-violation rate under a fixed ceiling that the
// uncontrolled fleet blows through, deadline admission strictly reduces the
// device cycles wasted on served-but-already-late work at every factor, and
// the burn tracker alerts during the flash crowd while staying silent on the
// same fleet with the crowd removed.

import (
	"fmt"

	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

// goldViolationCeiling is the controlled fleet's SLO floor: the gold class
// may see at most this fraction of its calls violate the latency target
// during the flash crowd. The uncontrolled fleet must land above it — the
// sweep's headline graceful-degradation assertion.
const goldViolationCeiling = 0.10

// overloadBase is the sweep's reference flash-crowd replay: base rate near
// the single-width fleet's capacity, a 20x crowd over the top tenant band,
// tight per-class targets, and a small heavily-skewed tenant population so
// per-tenant burn windows accumulate meaningful sample counts.
func overloadBase(cfg Config) sim.Config {
	return sim.Config{
		Seed: cfg.Seed,
		// Flash windows live on the cycle clock, so the replay needs enough
		// calls to span several on/off periods regardless of configured scale.
		Calls:        max(cfg.ReplayCalls, 1400),
		MaxCallBytes: 64 << 10,
		Pipelines:    2,
		Workers:      Workers(),
		Devices:      cfg.Devices,
		Resilience:   resil.Policy{MaxQueue: 32},
		Traffic: traffic.Pattern{
			CallsPerMcycle: 3000,
			FlashFactor:    20, FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: 0.05,
		},
		Tenants: traffic.Tenants{N: 64, ZipfS: 1.1},
		SLO:     traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}},
	}
}

// goldViolRate is the gold class's violation fraction over its served+shed
// call count.
func goldViolRate(r *sim.Report) float64 {
	g := r.PerClass[0]
	if g.Calls == 0 {
		return 0
	}
	return float64(g.SLOViolations) / float64(g.Calls)
}

func runOverloadSweep(cfg Config) ([]*Table, error) {

	// Table 1: the control-plane headline. Same flash crowd, three fleets:
	// uncontrolled (one pinned replica, class shed only), width-pinned (full
	// width but static), and controlled (burn-driven autoscaling plus
	// deadline admission over the same maximum width).
	width := max(3, min(4, cfg.Replicas))
	uncontrolled, err := sim.Run(overloadBase(cfg))
	if err != nil {
		return nil, fmt.Errorf("overload-sweep uncontrolled: %w", err)
	}
	ctlCfg := overloadBase(cfg)
	ctlCfg.Replicas = width
	ctlCfg.Resilience.DeadlineFactor = 2
	ctlCfg.Burn = traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6}
	ctlCfg.Autoscale = traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5}
	controlled, err := sim.Run(ctlCfg)
	if err != nil {
		return nil, fmt.Errorf("overload-sweep controlled: %w", err)
	}
	pinCfg := overloadBase(cfg)
	pinCfg.Replicas = width
	pinned, err := sim.Run(pinCfg)
	if err != nil {
		return nil, fmt.Errorf("overload-sweep pinned-width: %w", err)
	}
	uRate, cRate := goldViolRate(uncontrolled), goldViolRate(controlled)
	if cRate > goldViolationCeiling {
		return nil, fmt.Errorf("overload-sweep: controlled gold violation rate %.3f above the %.2f ceiling",
			cRate, goldViolationCeiling)
	}
	if uRate <= goldViolationCeiling {
		return nil, fmt.Errorf("overload-sweep: uncontrolled gold violation rate %.3f did not blow the %.2f ceiling — scenario too light",
			uRate, goldViolationCeiling)
	}
	if controlled.AutoscaleUps == 0 {
		return nil, fmt.Errorf("overload-sweep: burn autoscaler never scaled up through the flash crowd")
	}
	if controlled.BurnAlerts == 0 {
		return nil, fmt.Errorf("overload-sweep: no burn alerts during the flash crowd")
	}
	headline := &Table{
		Title: "Flash-crowd control: 20x crowd over the head tenant band",
		Note: fmt.Sprintf("Asserted: controlled gold violation rate <= %.2f while uncontrolled exceeds it, "+
			"the burn autoscaler scales up through the crowd, and burn alerts fire.", goldViolationCeiling),
		Columns: []string{"fleet", "replicas", "gold-viol-rate", "shed", "deadline-shed",
			"burn-alerts", "ups", "wasted-Mcyc", "p99-us"},
	}
	addFleet := func(name, replicas string, r *sim.Report) {
		headline.AddRow(name, replicas, pct(goldViolRate(r)), fmt.Sprint(r.ShedCalls),
			fmt.Sprint(r.DeadlineSheds), fmt.Sprint(r.BurnAlerts), fmt.Sprint(r.AutoscaleUps),
			f2(r.WastedCycles/1e6), f1(r.P99LatencyUs))
	}
	addFleet("uncontrolled", "1", uncontrolled)
	addFleet("pinned-width", fmt.Sprint(width), pinned)
	addFleet("controlled", fmt.Sprintf("1..%d", width), controlled)

	// Table 2: deadline admission in isolation, on the uncontrolled
	// single-width fleet where queueing delay makes calls hopeless. Every
	// factor must shed on deadline and strictly reduce wasted device cycles
	// against the class-only baseline; tighter factors shed at least as much.
	dl := &Table{
		Title: "Deadline-aware admission: wasted device cycles vs admission factor",
		Note: "Factor 0 is class-only admission. Asserted: every finite factor sheds on " +
			"deadline and strictly reduces the cycles spent serving already-late calls; " +
			"tighter factors shed at least as many calls on deadline.",
		Columns: []string{"factor", "deadline-shed", "shed", "wasted-Mcyc", "goodput-MB", "p99-us"},
	}
	dl.AddRow("off", "0", fmt.Sprint(uncontrolled.ShedCalls),
		f2(uncontrolled.WastedCycles/1e6), f1(float64(uncontrolled.GoodputBytes)/(1<<20)),
		f1(uncontrolled.P99LatencyUs))
	prevDL := -1
	for _, factor := range []float64{3, 2, 1.5} {
		c := overloadBase(cfg)
		c.Resilience.DeadlineFactor = factor
		r, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("overload-sweep factor=%v: %w", factor, err)
		}
		if r.DeadlineSheds == 0 {
			return nil, fmt.Errorf("overload-sweep: factor %v shed nothing on deadline", factor)
		}
		if r.WastedCycles >= uncontrolled.WastedCycles {
			return nil, fmt.Errorf("overload-sweep: factor %v wasted %.0f cycles, not below class-only %.0f",
				factor, r.WastedCycles, uncontrolled.WastedCycles)
		}
		if r.DeadlineSheds < prevDL {
			return nil, fmt.Errorf("overload-sweep: deadline sheds fell from %d to %d tightening to factor %v",
				prevDL, r.DeadlineSheds, factor)
		}
		prevDL = r.DeadlineSheds
		dl.AddRow(f1(factor), fmt.Sprint(r.DeadlineSheds), fmt.Sprint(r.ShedCalls),
			f2(r.WastedCycles/1e6), f1(float64(r.GoodputBytes)/(1<<20)), f1(r.P99LatencyUs))
	}

	// Table 3: burn-alert signal quality. The tracker must fire during the
	// flash crowd and stay silent on a healthy fleet — alerts page on harm,
	// not on traffic. Healthy means genuinely healthy: an under-capacity rate
	// against attainable targets. (A fleet whose gold target sits below the
	// raw service time of its largest calls is burning by definition, and the
	// tracker rightly pages on it — the sweep's stress rows lean on exactly
	// that tightness.)
	alerts := &Table{
		Title: "Per-tenant SLO burn alerting: flash crowd vs healthy steady load",
		Note: "Same fleet, same tracker; the healthy row removes the crowd, drops the base " +
			"rate to a comfortably under-capacity load, and grades against attainable " +
			"targets. Asserted: alerts fire with the crowd and stay zero on the healthy " +
			"fleet.",
		Columns: []string{"traffic", "burn-alerts", "alerts-gold", "alerts-silver", "alerts-bronze", "shed"},
	}
	for _, tc := range []struct {
		name  string
		flash bool
	}{{"flash-crowd", true}, {"healthy", false}} {
		c := overloadBase(cfg)
		c.Burn = traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6}
		if !tc.flash {
			c.Traffic.FlashFactor, c.Traffic.FlashOnCycles, c.Traffic.FlashOffCycles, c.Traffic.FlashRankFrac = 0, 0, 0, 0
			c.Traffic.CallsPerMcycle = 1000
			c.SLO = traffic.SLO{TargetUs: [traffic.NumClasses]float64{50, 200, 800}}
		}
		r, err := sim.Run(c)
		if err != nil {
			return nil, fmt.Errorf("overload-sweep burn %s: %w", tc.name, err)
		}
		if tc.flash && r.BurnAlerts == 0 {
			return nil, fmt.Errorf("overload-sweep: no burn alerts under the flash crowd")
		}
		if !tc.flash && r.BurnAlerts != 0 {
			return nil, fmt.Errorf("overload-sweep: %d burn alerts on steady traffic", r.BurnAlerts)
		}
		alerts.AddRow(tc.name, fmt.Sprint(r.BurnAlerts), fmt.Sprint(r.PerClass[0].BurnAlerts),
			fmt.Sprint(r.PerClass[1].BurnAlerts), fmt.Sprint(r.PerClass[2].BurnAlerts),
			fmt.Sprint(r.ShedCalls))
	}

	return []*Table{headline, dl, alerts}, nil
}
