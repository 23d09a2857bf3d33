package sim

import (
	"errors"
	"fmt"

	"cdpu/internal/cluster"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/xeon"
)

// clusterMode reports whether the replay deploys real replica groups. Every
// partition steps a cluster.GroupState either way — with one replica, the
// zero failover policy and no lifecycle schedule the group is the lone FCFS
// device, bit for bit — so this only decides whether the group's failover
// totals and per-replica dispatch gauges are published.
func (c Config) clusterMode() bool {
	return c.Replicas > 1 || c.Failover.Enabled() || c.Lifecycle != nil
}

// annotateCluster fills the cluster-mode fields of one call's phase-B
// outcome: the watchdog budget a hung replica would burn, and — for calls
// whose index lands in any replica's brownout window — the
// degraded-bandwidth service cycles, measured by re-executing the call with
// the brownout's stalled-MSHR injector installed. Both are pure functions of
// (spec, seed, call index), so the annotation is byte-identical at any
// worker count. Storm-hit calls keep brown zero: their service time already
// reflects the storm's recovery arc, and layering a second degradation model
// on top would double-charge them.
func (sh *shard) annotateCluster(out *execOut, s *callSpec, call int, cfg *Config, plain, devInput []byte, stormHit bool) error {
	devCfg := core.Config{Algo: s.rec.Algo, Op: s.rec.Op, Placement: cfg.Placement}
	// Budget bytes mirror the real watchdog's post-call accounting where the
	// sizes are knowable up front: a decompression call's output is the
	// uncompressed payload; a compression call's output size is unknown
	// before it runs, so its budget conservatively covers the input only.
	inB, outB := len(plain), 0
	if s.rec.Op == comp.Decompress {
		inB, outB = len(devInput), len(plain)
	}
	out.budget = devCfg.WatchdogBudget(inB, outB)
	// The brownout window that matters is the one covering this call's own
	// replica group: instance inst of a slot owns replicas
	// [inst*Replicas, (inst+1)*Replicas) of the lifecycle schedule's replica
	// space, so each device instance sees independent lifecycle weather.
	if stormHit || !cfg.Lifecycle.AnyBrownoutRange(s.inst*cfg.Replicas, cfg.Replicas, call) {
		return nil
	}
	dev := sh.devs[s.dev]
	dev.SetFaultInjector(fault.Plan{StallEvery: 1, StallMSHRs: fault.BrownoutStallMSHRs})
	res, err := dev.Exec(devInput)
	dev.SetFaultInjector(nil)
	if err != nil {
		return fmt.Errorf("sim: brownout service for call %d: %w", call, err)
	}
	out.brown = res.Cycles
	return nil
}

// softwareCycles is the Xeon-baseline service time of one call in device
// cycles — what the software fallback charges when a dispatch degrades to the
// CPU.
func softwareCycles(s *callSpec) float64 {
	return xeon.Seconds(xeon.Cycles(s.rec.Algo, s.rec.Op, s.rec.Level, s.rec.UncompressedBytes)) * (memsys.DeviceGHz * 1e9)
}

// mergeClusterTotals rolls one group's failover totals into the Report and
// publishes the per-replica dispatch gauges the totals reconcile against.
// Called serially in partition order (d is the partition index, which equals
// the deviceOrder slot when Devices is 1).
func mergeClusterTotals(report *Report, d int, tot *cluster.Totals) {
	report.Failovers += tot.Failovers
	report.HedgedCalls += tot.HedgedCalls
	report.HedgeWins += tot.HedgeWins
	report.BreakerOpens += tot.BreakerOpens
	report.ReplicaRestarts += tot.ReplicaRestarts
	report.UnavailableCycles += tot.UnavailableCycles
	report.DegradedCalls += tot.Degraded
	report.AutoscaleUps += tot.ScaleUps
	report.AutoscaleDowns += tot.ScaleDowns
	for r, n := range tot.Dispatches {
		obs.Default().Gauge(fmt.Sprintf("cluster.dispatches.d%d.r%d", d, r)).Set(float64(n))
	}
}

// firstReductionError surfaces the deterministic first error across the
// partition reductions: construction and validation errors return as-is, the
// first in partition order, while cluster CallErrors — each
// already the lowest failing index within its group — merge by global call
// index, so the surfaced abort is exactly the first failure a serial
// single-group run would hit, at any worker or device count.
func firstReductionError(reds []devReduction, totalCalls int) error {
	minIdx := totalCalls
	var minErr error
	for d := range reds {
		err := reds[d].err
		if err == nil {
			continue
		}
		var ce *cluster.CallError
		if !errors.As(err, &ce) {
			return err
		}
		if ce.Index < minIdx {
			minIdx = ce.Index
			minErr = fmt.Errorf("sim: call %d: %w", ce.Index, ce.Err)
		}
	}
	return minErr
}
