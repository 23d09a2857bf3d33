package sim

import (
	"fmt"
	"math"
	"slices"

	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/obs"
	"cdpu/internal/traffic"
)

// Per-class traffic instruments, published once per Run from the serial merge
// so they reconcile exactly with Report.PerClass.
var (
	metricClassCalls   = classCounters("calls")
	metricClassShed    = classCounters("shed")
	metricClassViol    = classCounters("slo_violations")
	metricClassGoodput = classCounters("goodput_bytes")
	metricClassBurn    = classCounters("burn_alerts")
)

func classCounters(name string) [traffic.NumClasses]*obs.Counter {
	var cs [traffic.NumClasses]*obs.Counter
	for c := range cs {
		cs[c] = obs.Default().Counter(fmt.Sprintf("traffic.class%d.%s", c, name))
	}
	return cs
}

// publishClassMetrics rolls the Report's per-class totals into the traffic.*
// counters. Called once per Run, after the serial merge; a closed-loop Run's
// per-class totals are all zero.
func publishClassMetrics(report *Report) {
	for c := range report.PerClass {
		metricClassCalls[c].Add(int64(report.PerClass[c].Calls))
		metricClassShed[c].Add(int64(report.PerClass[c].ShedCalls))
		metricClassViol[c].Add(int64(report.PerClass[c].SLOViolations))
		metricClassGoodput[c].Add(int64(report.PerClass[c].GoodputBytes))
		metricClassBurn[c].Add(int64(report.PerClass[c].BurnAlerts))
	}
}

// burnPass is the serial post-merge SLO burn pass: it rebuilds each call's
// outcome (shed, or served over its class target) from the partition
// reductions — index-addressed, so the rebuild is independent of how calls
// were partitioned — and feeds the per-tenant tracker in call-index order,
// which in open-loop mode is arrival order (the generator's clock only moves
// forward). Alert counts are therefore byte-identical at any worker count.
func burnPass(cfg *Config, specs []scheduled, reds []devReduction, report *Report) {
	slo := cfg.sloCycles()
	bad := make([]bool, len(specs))
	for p := range reds {
		red := &reds[p]
		for ji := range red.results {
			r := &red.results[ji]
			ci := red.idxs[ji]
			bad[ci] = r.Err != nil || r.Latency > slo[specs[ci].class]
		}
	}
	trk := traffic.NewBurnTracker(cfg.Burn, cfg.Seed)
	for i := range specs {
		trk.Observe(specs[i].arrival, specs[i].tenant, specs[i].class, bad[i])
	}
	alerts := trk.Alerts()
	for cl := range alerts {
		report.PerClass[cl].BurnAlerts = alerts[cl]
		report.BurnAlerts += alerts[cl]
	}
}

// validate rejects configurations the replay cannot give meaning to, after
// defaults have been applied, with the field named: withDefaults remaps only
// an exact 0, so a negative or non-finite value would otherwise reach the
// engine and surface as NaN schedules or a stepper error many layers down.
func (c Config) validate() error {
	if math.IsNaN(c.OfferedGBps) || math.IsInf(c.OfferedGBps, 0) || c.OfferedGBps <= 0 {
		return fmt.Errorf("sim: OfferedGBps %v (want finite, positive)", c.OfferedGBps)
	}
	if c.Calls < 0 {
		return fmt.Errorf("sim: Calls %d (want non-negative)", c.Calls)
	}
	if c.MaxCallBytes < 0 {
		return fmt.Errorf("sim: MaxCallBytes %d (want non-negative)", c.MaxCallBytes)
	}
	if c.Pipelines < 1 || c.Pipelines > core.MaxPipelines {
		return fmt.Errorf("sim: Pipelines %d (want 1 to %d)", c.Pipelines, core.MaxPipelines)
	}
	if c.Devices < 0 {
		return fmt.Errorf("sim: Devices %d (want non-negative)", c.Devices)
	}
	if c.Replicas < 0 {
		return fmt.Errorf("sim: Replicas %d (want non-negative)", c.Replicas)
	}
	if r := c.Failover.BreakerErrorRate; !(r >= 0 && r <= 1) {
		return fmt.Errorf("sim: Failover.BreakerErrorRate %v (want a rate in [0, 1])", r)
	}
	// Counts, lengths, budgets and cycle charges, where 0 means off, unlimited
	// or the default.
	type field struct {
		name string
		v    float64
	}
	f := c.Failover
	fields := []field{
		{"EpochCycles", c.EpochCycles},
		{"Failover.MaxFailovers", float64(f.MaxFailovers)},
		{"Failover.FailoverPenaltyCycles", f.FailoverPenaltyCycles},
		{"Failover.BreakerFailures", float64(f.BreakerFailures)},
		{"Failover.BreakerWindow", float64(f.BreakerWindow)},
		{"Failover.BreakerOpenCycles", f.BreakerOpenCycles},
		{"Failover.BreakerHalfOpenProbes", float64(f.BreakerHalfOpenProbes)},
		{"Failover.HedgeDelayCycles", f.HedgeDelayCycles},
		{"Failover.CrashDetectCycles", f.CrashDetectCycles},
		{"Failover.RestartCycles", f.RestartCycles},
	}
	// An unknown storm kind would run as a watchdog hang, an unknown lifecycle
	// kind as a sick replica served at healthy speed.
	if s := c.Storm; s != nil {
		if !(s.Rate >= 0 && s.Rate <= 1) {
			return fmt.Errorf("sim: Storm.Rate %v (want a probability in [0, 1])", s.Rate)
		}
		if i := unknownKind(s.Kinds, fault.StormKinds); i >= 0 {
			return fmt.Errorf("sim: Storm.Kinds[%d] %v (want one of fault.StormKinds)", i, s.Kinds[i])
		}
		fields = append(fields, field{"Storm.MeanRepeats", s.MeanRepeats})
	}
	if l := c.Lifecycle; l != nil {
		if !(l.Rate >= 0 && l.Rate <= 1) {
			return fmt.Errorf("sim: Lifecycle.Rate %v (want a probability in [0, 1])", l.Rate)
		}
		if i := unknownKind(l.Kinds, fault.LifeKinds); i >= 0 {
			return fmt.Errorf("sim: Lifecycle.Kinds[%d] %v (want one of fault.LifeKinds)", i, l.Kinds[i])
		}
		fields = append(fields,
			field{"Lifecycle.EpochCalls", float64(l.EpochCalls)},
			field{"Lifecycle.MeanEventCalls", float64(l.MeanEventCalls)})
	}
	if s := c.Contention; s != nil {
		fields = append(fields,
			field{"Contention.StreamBytesPerCycle", s.StreamBytesPerCycle},
			field{"Contention.LinkOpsPerCycle", s.LinkOpsPerCycle},
			field{"Contention.LLCBytes", s.LLCBytes})
	}
	for _, f := range fields {
		if !finiteNonNegative(f.v) {
			return fmt.Errorf("sim: %s %v (want finite, non-negative)", f.name, f.v)
		}
	}
	if err := c.Traffic.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.Burn.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if f := c.Resilience.DeadlineFactor; !finiteNonNegative(f) {
		return fmt.Errorf("sim: Resilience.DeadlineFactor %v (want finite, non-negative)", f)
	}
	// Every replica group applies Autoscale, in either arrival mode.
	if err := c.Autoscale.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if c.Autoscale.Enabled() && c.Replicas < 2 {
		return fmt.Errorf("sim: Autoscale requires Replicas > 1 (got %d)", c.Replicas)
	}
	if !c.Traffic.Enabled() {
		// Burn tracking and deadline admission key on per-call tenant ranks
		// and class targets, which only open-loop arrivals carry.
		if c.Burn.Enabled() {
			return fmt.Errorf("sim: Burn tracking requires open-loop Traffic")
		}
		if c.Resilience.DeadlineFactor > 0 {
			return fmt.Errorf("sim: Resilience.DeadlineFactor requires open-loop Traffic")
		}
		return nil
	}
	if err := c.Tenants.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	if err := c.SLO.Validate(); err != nil {
		return fmt.Errorf("sim: %w", err)
	}
	return nil
}

// finiteNonNegative is the range of a budget, a spacing or a factor: NaN fails
// the first comparison.
func finiteNonNegative(v float64) bool { return v >= 0 && !math.IsInf(v, 1) }

// unknownKind is the index of the first of kinds outside known, or -1.
func unknownKind[K comparable](kinds, known []K) int {
	return slices.IndexFunc(kinds, func(k K) bool { return !slices.Contains(known, k) })
}

// sloCycles returns the per-class latency targets in device cycles, or nil in
// closed-loop mode — the switch that keeps per-class accounting out of
// closed-loop replays.
func (c *Config) sloCycles() *[traffic.NumClasses]float64 {
	if !c.Traffic.Enabled() {
		return nil
	}
	var t [traffic.NumClasses]float64
	for cl := range t {
		t[cl] = c.SLO.TargetCycles(cl)
	}
	return &t
}
