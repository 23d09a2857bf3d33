package sim

import (
	"cdpu/internal/cluster"
	"cdpu/internal/core"
	"cdpu/internal/des"
	"cdpu/internal/traffic"
)

// This file is the bridge between the replay's phase C and the partitioned
// discrete-event engine (internal/des). Each device instance is a replica
// group — a lone FCFS device is the one-replica, zero-policy group — and a
// des.Partition holding its own event queue of two event kinds: preloaded
// Arrival events drive the group's stepper (cluster.GroupState), which
// transitions an expired breaker window when the next dispatch observes it,
// and the ServiceDone event each served call schedules attributes its
// shared-resource demand to the epoch the work completed in. Arrivals replay
// in (time, insertion) order and every stretch multiplication is exactly 1.0
// when Contention is nil, so the engine is bit-identical to batch
// core.Device.ReplayPolicy / cluster.Group.Replay passes over the same calls —
// the property the differential tests pin against the test-side oracle
// (oracle_test.go).

// simPart is one phase-C partition.
type simPart struct {
	cfg   *Config
	specs []scheduled
	outs  []execOut
	idxs  []int
	slo   *[traffic.NumClasses]float64 // per-class targets; nil in closed loop

	q   des.Queue
	dev *core.Device // probe device: reset cost and per-replica silicon area
	gst *cluster.GroupState

	// Shared-resource accounting, active only when Contention is set.
	shared       bool
	stretch      float64
	demand       des.Demand
	prevRestarts int // warm restarts already charged to demand
}

// newSimPart builds the partition for one device instance. base anchors the
// group's replicas in the lifecycle schedule's replica space.
func newSimPart(slot, base int, idxs []int, specs []scheduled, outs []execOut, cfg *Config) (*simPart, error) {
	so := deviceOrder[slot]
	devCfg := core.Config{Algo: so.algo, Op: so.op, Placement: cfg.Placement}
	dev, err := core.NewDevice(devCfg, cfg.Pipelines)
	if err != nil {
		return nil, err
	}
	p := &simPart{
		cfg:     cfg,
		specs:   specs,
		outs:    outs,
		idxs:    idxs,
		slo:     cfg.sloCycles(),
		dev:     dev,
		shared:  cfg.Contention != nil,
		stretch: 1,
	}
	g := &cluster.Group{
		Replicas:    cfg.Replicas,
		Pipelines:   cfg.Pipelines,
		ResetCycles: dev.PipelineResetCycles(),
		Unit:        devCfg.Name(),
		Resil:       cfg.Resilience,
		Policy:      cfg.Failover,
		Lifecycle:   cfg.Lifecycle,
		ReplicaBase: base,
		Autoscale:   cfg.Autoscale,
	}
	p.gst = g.NewState(len(idxs))
	// Arrivals are globally non-decreasing (the schedule is a running clock),
	// so preloading in index order pushes them in sorted order — each push is
	// O(1) and the stepper's sorted-arrival contract holds by construction.
	for _, ci := range idxs {
		p.q.Push(des.Event{Time: specs[ci].arrival, Kind: des.Arrival, Call: ci})
	}
	return p, nil
}

// NextTime implements des.Partition.
func (p *simPart) NextTime() (float64, bool) {
	ev, ok := p.q.Peek()
	return ev.Time, ok
}

// Advance implements des.Partition: process every pending event before limit.
func (p *simPart) Advance(limit float64) error {
	for {
		ev, ok := p.q.Peek()
		if !ok || ev.Time >= limit {
			return nil
		}
		p.q.Pop()
		switch ev.Kind {
		case des.Arrival:
			if err := p.stepArrival(ev.Call); err != nil {
				return err
			}
		case des.ServiceDone:
			// Demand lands in the epoch the work completed in: the stream
			// bytes crossed the shared fabric until now, not at dispatch.
			p.demand.StreamBytes += float64(p.specs[ev.Call].rec.UncompressedBytes)
		}
	}
}

// stepArrival drives one call through the group's stepper. Every cycle count
// it feeds the stepper is the phase-B value times the current stretch, which
// is exactly 1.0 without Contention.
func (p *simPart) stepArrival(ci int) error {
	s := &p.specs[ci]
	o := &p.outs[ci]
	c := cluster.Call{
		Arrival:    s.arrival,
		Index:      ci,
		Service:    o.service * p.stretch,
		Post:       o.post,
		Faults:     o.faults,
		Degraded:   o.degraded,
		Brown:      o.brown * p.stretch,
		HangBudget: o.budget,
		Bytes:      s.rec.UncompressedBytes,
		Priority:   s.class,
	}
	if p.slo != nil {
		c.Target = p.slo[s.class]
	}
	if p.cfg.Resilience.SoftwareFallback {
		c.Software = softwareCycles(s.callSpec)
	}
	if err := p.gst.Step(&c); err != nil {
		return err
	}
	if p.shared {
		p.demand.LinkOps++ // dispatch doorbell
		if r := p.gst.Last(); r.Err == nil && r.Pipeline >= 0 {
			p.q.Push(des.Event{Time: r.Start + r.Service, Kind: des.ServiceDone, Call: ci})
		}
		// Warm restarts reinitialize over the shared host link.
		n := p.gst.Restarts()
		p.demand.LinkOps += float64(n - p.prevRestarts)
		p.prevRestarts = n
	}
	return nil
}

// EpochDemand implements des.Partition.
func (p *simPart) EpochDemand() des.Demand {
	d := p.demand
	p.demand = des.Demand{}
	return d
}

// SetStretch implements des.Partition.
func (p *simPart) SetStretch(s des.Stretch) { p.stretch = s.Service }

// finish converts the partition's stepper state into the merge-ready
// reduction.
func (p *simPart) finish(err error) devReduction {
	if err != nil {
		return devReduction{err: err}
	}
	red := devReduction{dev: p.dev, idxs: p.idxs}
	red.results, red.stats, red.tot = p.gst.Finish()
	red.summarize(p.specs, p.slo)
	return red
}

// runEngineReduction is phase C on the discrete-event engine: one partition
// per device instance, advanced by the engine's worker pool, results
// collected in partition order.
func runEngineReduction(perPart [][]int, specs []scheduled, outs []execOut, cfg *Config) []devReduction {
	reds := make([]devReduction, len(perPart))
	sps := make([]*simPart, len(perPart))
	parts := make([]des.Partition, 0, len(perPart))
	for pid := range perPart {
		sp, err := newSimPart(pid/cfg.Devices, (pid%cfg.Devices)*cfg.Replicas, perPart[pid], specs, outs, cfg)
		if err != nil {
			reds[pid] = devReduction{err: err}
			continue
		}
		sps[pid] = sp
		parts = append(parts, sp)
	}
	eng := des.Engine{Workers: cfg.Workers, EpochCycles: cfg.EpochCycles, Shared: cfg.Contention, Parts: parts}
	errs := eng.Run()
	ei := 0
	for pid, sp := range sps {
		if sp == nil {
			continue
		}
		reds[pid] = sp.finish(errs[ei])
		ei++
	}
	return reds
}
