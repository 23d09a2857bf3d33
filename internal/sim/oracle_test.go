package sim

import (
	"sync"

	"cdpu/internal/cluster"
	"cdpu/internal/core"
	"cdpu/internal/resil"
)

// This file is the differential tests' phase-C oracle: the pre-DES serial
// reduction, kept beside the engine as an independent driver. It walks each
// partition's fully materialized call list through the batch APIs —
// core.Device.ReplayPolicy for a lone device, cluster.Group.Replay for a
// replica group — with no event queue and no stretch, so a Report equal to the
// engine's proves two things at once: that driving the stepper from des events
// changes nothing, and that cluster.GroupState at one replica with the zero
// failover policy is core.ReplayState. Tests reach it through the run seam:
// run(cfg, runLegacyReduction).

// runLegacyReduction is one goroutine per partition running the serial
// reduction loop.
func runLegacyReduction(perPart [][]int, specs []scheduled, outs []execOut, cfg *Config) []devReduction {
	devices := cfg.Devices
	chaos := cfg.Storm != nil || cfg.Resilience != (resil.Policy{})
	clustered := cfg.clusterMode()
	reds := make([]devReduction, len(perPart))
	replicas := max(1, cfg.Replicas)
	var wg sync.WaitGroup
	for p := range perPart {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			if clustered {
				reds[p] = reduceCluster(p/devices, (p%devices)*replicas, perPart[p], specs, outs, cfg)
			} else {
				reds[p] = reduceDevice(p/devices, perPart[p], specs, outs, cfg, chaos)
			}
		}(p)
	}
	wg.Wait()
	return reds
}

// reduceDevice replays one device's FCFS queue over the precomputed service
// cycles. The recovery-aware pass only materializes its extra per-job inputs
// when something can populate them; with the zero policy ReplayPolicy is
// arithmetically identical to plain FCFS.
func reduceDevice(d int, idxs []int, specs []scheduled, outs []execOut, cfg *Config, chaos bool) devReduction {
	slot := deviceOrder[d]
	dev, err := core.NewDevice(core.Config{Algo: slot.algo, Op: slot.op, Placement: cfg.Placement}, cfg.Pipelines)
	if err != nil {
		return devReduction{err: err}
	}
	jobs := make([]core.Job, len(idxs))
	svc := make([]float64, len(idxs))
	var post []float64
	var flt []int
	if chaos {
		post = make([]float64, len(idxs))
		flt = make([]int, len(idxs))
	}
	slo := cfg.sloCycles()
	for ji, ci := range idxs {
		jobs[ji] = core.Job{Arrival: specs[ci].arrival, Priority: specs[ci].class}
		if slo != nil {
			jobs[ji].Target = slo[specs[ci].class]
		}
		svc[ji] = outs[ci].service
		if chaos {
			post[ji] = outs[ci].post
			flt[ji] = outs[ci].faults
		}
	}
	results, devStats, err := dev.ReplayPolicy(jobs, svc, post, flt, cfg.Resilience)
	if err != nil {
		return devReduction{err: err}
	}
	red := devReduction{dev: dev, results: results, idxs: idxs, stats: devStats}
	red.summarize(specs, cfg.sloCycles())
	return red
}

// reduceCluster is the cluster-mode counterpart of reduceDevice: one device
// instance of a deviceOrder slot becomes a cluster.Group of Replicas devices
// behind the failover dispatcher, fed the same index-addressed phase-B
// outcomes. base anchors the group's replicas in the lifecycle schedule's
// replica space (inst*Replicas; 0 when Devices is 1). The probe device
// supplies the placement-aware reset cost and the per-replica silicon area.
func reduceCluster(d, base int, idxs []int, specs []scheduled, outs []execOut, cfg *Config) devReduction {
	slot := deviceOrder[d]
	devCfg := core.Config{Algo: slot.algo, Op: slot.op, Placement: cfg.Placement}
	dev, err := core.NewDevice(devCfg, cfg.Pipelines)
	if err != nil {
		return devReduction{err: err}
	}
	g := &cluster.Group{
		Replicas:    max(1, cfg.Replicas),
		Pipelines:   cfg.Pipelines,
		ResetCycles: dev.PipelineResetCycles(),
		Unit:        devCfg.Name(),
		Resil:       cfg.Resilience,
		Policy:      cfg.Failover,
		Lifecycle:   cfg.Lifecycle,
		ReplicaBase: base,
		Autoscale:   cfg.Autoscale,
	}
	calls := make([]cluster.Call, len(idxs))
	slo := cfg.sloCycles()
	for ji, ci := range idxs {
		s := &specs[ci]
		calls[ji] = cluster.Call{
			Arrival:    s.arrival,
			Index:      ci,
			Service:    outs[ci].service,
			Post:       outs[ci].post,
			Faults:     outs[ci].faults,
			Degraded:   outs[ci].degraded,
			Brown:      outs[ci].brown,
			HangBudget: outs[ci].budget,
			Bytes:      s.rec.UncompressedBytes,
			Priority:   s.class,
		}
		if slo != nil {
			calls[ji].Target = slo[s.class]
		}
		if cfg.Resilience.SoftwareFallback {
			calls[ji].Software = softwareCycles(s.callSpec)
		}
	}
	results, devStats, tot, err := g.Replay(calls)
	if err != nil {
		return devReduction{dev: dev, err: err}
	}
	red := devReduction{dev: dev, results: results, idxs: idxs, stats: devStats, tot: tot}
	red.summarize(specs, cfg.sloCycles())
	return red
}
