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
// prepared healthy outcome out. Everything here may parse a decompress-op
// call's frame, so its input is encoded in full; a compress-op call's device
// still runs size-only (exec). plain is the call's payload (the shard's
// reused buffer). A call the storm misses is inside a brownout
// window of its replica group: it keeps its healthy service and gains the
// degraded-bandwidth cycles of a re-execution under the brownout's
// stalled-MSHR injector. A storm hit's recovery arc replaces its outcome but
// for the watchdog budget — corruption is non-transient and skips straight to
// the fallback decision, device faults retry with seeded backoff first — and
// gains no brownout cycles: its service already reflects the arc, and a
// second degradation model would double-charge it.
func (sh *shard) recostCall(s *callSpec, call int, cfg *Config, plain []byte, out *execOut) error {
	devInput := plain
	if s.rec.Op == comp.Decompress {
		var err error
		if sh.enc, err = sh.coder.AppendCompress(sh.enc[:0], s.rec.Algo, s.rec.Level, min(s.rec.WindowLog, 17), plain); err != nil {
			return err
		}
		devInput = sh.enc
	}
	kind, repeats, hit := cfg.Storm.Draw(call)
	if !hit {
		dev := sh.devs[s.dev]
		dev.SetFaultInjector(fault.Plan{StallEvery: 1, StallMSHRs: fault.BrownoutStallMSHRs})
		res, err := sh.exec(s, devInput)
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
		*out, err = sh.chaosBitFlip(s, call, cfg, plain, devInput)
	} else {
		*out, err = sh.chaosTransient(s, call, cfg, plain, devInput, kind, repeats)
	}
	out.budget = budget
	return err
}

// exec runs one dispatch of call s on its device clone. A compress-op call
// runs size-only: nothing reads a compression device's frame, and the
// software fallback verifies with the shard's own Coder. A decompress-op call
// parses devInput, its frame.
func (sh *shard) exec(s *callSpec, devInput []byte) (*core.Result, error) {
	if s.rec.Op == comp.Compress {
		return sh.devs[s.dev].ExecSizeOnly(devInput)
	}
	return sh.devs[s.dev].Exec(devInput)
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
