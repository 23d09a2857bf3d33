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

// recostCall re-costs one call a storm hits or a brownout touches, over its
// prepared healthy outcome out; plain is the call's payload, and every
// dispatch of it is priced as Prepare prices it (exec). A call the storm
// misses is inside a brownout window of its replica group: it keeps its
// healthy service and gains the degraded-bandwidth cycles of a re-execution
// under the brownout's stalled-MSHR injector. A storm hit's recovery arc
// replaces its outcome but for the watchdog budget — corruption is
// non-transient and skips straight to the fallback decision, device faults
// retry with seeded backoff first — and gains no brownout cycles: its service
// already reflects the arc, and a second degradation model would
// double-charge it.
func (sh *shard) recostCall(s *callSpec, call int, cfg *Config, plain []byte, out *execOut) error {
	kind, repeats, hit := cfg.Storm.Draw(call)
	if !hit {
		dev := sh.devs[s.dev]
		dev.SetFaultInjector(fault.Plan{StallEvery: 1, StallMSHRs: fault.BrownoutStallMSHRs})
		res, err := sh.exec(s, plain)
		dev.SetFaultInjector(nil)
		if err != nil {
			return fmt.Errorf("sim: brownout service for call %d: %w", call, err)
		}
		out.brown = res.Cycles
		return nil
	}
	budget := out.budget
	var err error
	if kind == fault.StormBitFlip {
		*out, err = sh.chaosBitFlip(s, call, cfg, plain)
	} else {
		*out, err = sh.chaosTransient(s, call, cfg, plain, kind, repeats)
	}
	out.budget = budget
	return err
}

// exec prices one dispatch of call s over its healthy payload plain, under
// whatever fault injector its device clone carries: the one way phase B
// prices a dispatch, producing no byte nobody reads. A compress-op call runs
// the device size-only (core.Device.ExecSizeOnly). A decompress-op call's
// frame is synthesized size-only into sh.enc and its recorded Plan goes to
// core.Device.ExecWithPlan, which charges bit-identically to a frame parse,
// injector included, and proves the plan against plain as it folds it.
func (sh *shard) exec(s *callSpec, plain []byte) (*core.Result, error) {
	dev := sh.devs[s.dev]
	if s.rec.Op == comp.Compress {
		return dev.ExecSizeOnly(plain)
	}
	var plan comp.Plan
	var err error
	if sh.enc, plan, err = sh.coder.AppendCompressSizeOnly(sh.enc[:0], s.rec.Algo, s.rec.Level, min(s.rec.WindowLog, 17), plain); err != nil {
		return nil, err
	}
	return dev.ExecWithPlan(sh.enc, plan, plain)
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
