package core

import (
	"fmt"
	"math"

	"cdpu/internal/area"
	"cdpu/internal/comp"
	"cdpu/internal/memsys"
	"cdpu/internal/resil"
	"cdpu/internal/stats"
	"cdpu/internal/zstdlite"
)

// Device models a CDPU integration with one or more identical pipelines
// behind a shared command router and memory interface. The paper reports
// single-pipeline areas and notes hyperscale deployments would provision for
// service throughput; a Device answers the follow-on question of how many
// pipelines a service's offered load needs before queueing delay erodes the
// accelerator's latency advantage (decompression sits on client-visible read
// paths, §3.3.1).
type Device struct {
	// pipeline is the device's one functional pipeline, a *Compressor or a
	// *Decompressor by the Config's Op. Its Trace, Time, SetTracing,
	// SetFaultInjector, SetResultReuse and PipelineResetCycles are the
	// device's own; see the unit methods for their contracts.
	pipeline
	pipelines int
}

// pipeline is what a Device needs of either direction's unit.
type pipeline interface {
	// exec is Compress or Decompress: the functional call and its timing.
	exec(payload []byte) (*Result, error)
	// Trace runs only the functional half of exec: it encodes or decodes
	// payload once and returns the call's Trace, which any device with the
	// same Config.FunctionalKey can Time.
	Trace(payload []byte) (*Trace, error)
	// Time runs only the timing half of exec: it charges a traced call under
	// the device's configuration. exec(payload) is Time(Trace(payload)) over
	// scratch the pipeline owns. The trace is only read, so devices on
	// different goroutines may Time one trace at once.
	Time(tr *Trace) (*Result, error)
	Area() *area.Breakdown
	SetTracing(on bool)
	SetFaultInjector(fi memsys.FaultInjector)
	SetResultReuse(on bool)
	PipelineResetCycles() float64
}

func (c *Compressor) exec(payload []byte) (*Result, error)   { return c.Compress(payload) }
func (d *Decompressor) exec(payload []byte) (*Result, error) { return d.Decompress(payload) }

// MaxPipelines is the most pipelines one Device models.
const MaxPipelines = 64

// NewDevice builds a device with n identical pipelines of the given
// configuration. The Config's Op selects the direction served.
func NewDevice(cfg Config, pipelines int) (*Device, error) {
	if pipelines < 1 || pipelines > MaxPipelines {
		return nil, fmt.Errorf("core: pipeline count %d out of [1,%d]", pipelines, MaxPipelines)
	}
	var p pipeline
	var err error
	if cfg.Op == comp.Compress {
		p, err = NewCompressor(cfg)
	} else {
		p, err = NewDecompressor(cfg)
	}
	if err != nil {
		return nil, err
	}
	return &Device{pipeline: p, pipelines: pipelines}, nil
}

// Area returns the device's silicon area: pipelines share the system
// interface (command router, memloaders/memwriters), so replication adds
// only the per-pipeline blocks.
func (d *Device) Area() *area.Breakdown {
	one := d.pipeline.Area()
	b := area.NewBreakdown()
	for _, name := range one.Blocks() {
		if name == "system-interface" {
			b.Add(name, one.Of(name))
			continue
		}
		b.Add(name, one.Of(name)*float64(d.pipelines))
	}
	return b
}

// Job is one queued accelerator call.
type Job struct {
	// Arrival is the submission time in device cycles.
	Arrival float64
	// Priority selects the job's admission bound under a priority-classed
	// policy (resil.Policy.QueueBound; 0 = highest priority, the full
	// MaxQueue).
	Priority int
	// Target is the job's latency deadline in cycles for deadline-aware
	// admission (resil.Policy.DeadlineFactor); 0 = no deadline, never
	// deadline-shed.
	Target float64
}

// JobResult reports one completed job.
type JobResult struct {
	// Queue is cycles spent waiting for a pipeline.
	Queue float64
	// Service is the pipeline occupancy (the call's modeled cycles).
	Service float64
	// Latency is Queue + Service.
	Latency float64
	// Start is the cycle at which service began (Arrival + Queue) — the
	// anchor a tracer uses to lift a call's relative spans to replay time.
	Start float64
	// Pipeline is the index of the pipeline that served the job, or -1 for
	// a job shed at admission.
	Pipeline int
	// Err marks a job the device did not serve: resil.ErrShed for a call
	// rejected by admission control (zero service cycles, zero latency).
	// Served jobs carry a nil Err.
	Err error
}

// DeviceStats aggregates a batch. Latency statistics cover served jobs only;
// Shed counts the jobs admission control rejected.
type DeviceStats struct {
	Jobs         int
	Utilization  float64 // busy pipeline-cycles / (pipelines * makespan)
	MeanLatency  float64
	P50Latency   float64
	P99Latency   float64
	Makespan     float64 // last completion minus first arrival
	Shed         int     // jobs rejected with resil.ErrShed or resil.ErrDeadlineShed
	DeadlineShed int     // the Shed subset rejected by deadline-aware admission
	Quarantines  int     // pipeline quarantine-and-reset events
}

// Exec runs one payload through the device's functional pipeline, returning
// the modeled call result with no queueing applied. It is the unit of work a
// sharded replay parallelizes: service cycles depend only on the payload and
// the device configuration, so per-worker Device clones can Exec calls in any
// order and ReplayPolicy queues them deterministically. Not safe for
// concurrent use on one Device.
func (d *Device) Exec(payload []byte) (*Result, error) { return d.exec(payload) }

// ExecWithPlan is Exec for a decompression device whose input frame's Plan
// was recorded at synthesis time, Snappy's element stream or ZStd's frame
// description: charges are bit-identical to Exec(payload), but nothing is
// parsed, entropy-decoded or reconstructed, and the Result's Output aliases
// content; see Decompressor.DecompressPlanned.
func (d *Device) ExecWithPlan(payload []byte, plan comp.Plan, content []byte) (*Result, error) {
	dec, ok := d.pipeline.(*Decompressor)
	if !ok {
		return nil, fmt.Errorf("core: planned exec on a compression device")
	}
	return dec.DecompressPlanned(payload, plan, content)
}

// ExecPlanned is ExecWithPlan for a caller that holds only a ZStd plan.
func (d *Device) ExecPlanned(payload []byte, plan *zstdlite.Plan, content []byte) (*Result, error) {
	return d.ExecWithPlan(payload, comp.Plan{ZStd: plan}, content)
}

// ReplayPolicy schedules jobs FCFS across the device's pipelines using
// precomputed per-job service cycles, under a recovery policy — the reuse
// point for replays that Exec payloads on per-worker clones and then need one
// deterministic queueing pass. Jobs must be sorted by arrival time;
// service[i] holds jobs[i]'s modeled cycles (finite and non-negative — NaN,
// infinite or negative values would silently poison Utilization, Makespan and
// the quickselect percentiles, so they are rejected). The policy adds the two
// device-side recovery mechanisms that depend on queue state rather than on a
// single call.
//
//   - Admission control: with pol.MaxQueue > 0, an arrival that finds
//     MaxQueue jobs already waiting is shed — JobResult.Err = resil.ErrShed,
//     zero service cycles, Pipeline -1 — instead of growing the queue
//     without bound.
//   - Pipeline quarantine: faults[i] (may be nil) counts the device-fault
//     events job i's dispatches inflicted on the pipeline that served it.
//     A pipeline accumulating pol.QuarantineK fault events within
//     pol.QuarantineWindowCycles is drained (its in-flight job completes),
//     charged a reset (the device's placement-aware PipelineResetCycles),
//     and removed from dispatch for pol.QuarantinePenaltyCycles; capacity
//     degrades instead of failing.
//
// post[i] (may be nil) is latency the caller observes after the job leaves
// the device — the software-fallback service time of a degraded call — and
// is charged to that job's Latency and the batch statistics, but not to
// pipeline occupancy. With the zero policy and nil post/faults the pass is
// plain FCFS.
func (d *Device) ReplayPolicy(jobs []Job, service, post []float64, faults []int, pol resil.Policy) ([]JobResult, DeviceStats, error) {
	if len(jobs) != len(service) {
		return nil, DeviceStats{}, fmt.Errorf("core: %d jobs with %d service times", len(jobs), len(service))
	}
	if post != nil && len(post) != len(jobs) {
		return nil, DeviceStats{}, fmt.Errorf("core: %d jobs with %d post times", len(jobs), len(post))
	}
	if faults != nil && len(faults) != len(jobs) {
		return nil, DeviceStats{}, fmt.Errorf("core: %d jobs with %d fault counts", len(jobs), len(faults))
	}
	if len(jobs) == 0 {
		return nil, DeviceStats{}, nil
	}
	st := d.NewReplayState(len(jobs), pol, post != nil, faults != nil)
	for i, job := range jobs {
		var x float64
		if post != nil {
			x = post[i]
		}
		var f int
		if faults != nil {
			f = faults[i]
		}
		if err := st.StepCall(job.Arrival, service[i], x, f, job.Priority, job.Target); err != nil {
			return nil, DeviceStats{}, err
		}
	}
	results, devStats := st.Finish()
	return results, devStats, nil
}

// ReplayState is ReplayPolicy unrolled into one Step per job, so a
// discrete-event engine can drive a device arrival by arrival instead of
// walking a fully materialized job slice. ReplayPolicy itself is a thin loop
// over StepCall + Finish; the per-job arithmetic is the same operations in
// the same order, so driving the state from an event queue produces results
// bit-identical to the serial pass.
type ReplayState struct {
	dev        *Device
	pol        resil.Policy
	withPost   bool
	withFaults bool

	free         []float64 // next-free time per pipeline
	results      []JobResult
	busy         float64
	first        float64
	lastDone     float64
	served       int
	shed         int
	shedDeadline int
	quarantines  int
	// Admission queue: starts are non-decreasing (arrivals are sorted and
	// pipeline free times only grow), so the waiting set is a FIFO window
	// over the start times of already-assigned jobs.
	pending     []float64
	pendingHead int
	// Quarantine bookkeeping: per-pipeline fault-event times within the
	// sliding window.
	faultLog [][]float64
	prev     float64 // previous arrival, for the sorted-input check
	n        int     // jobs stepped so far
}

// NewReplayState prepares an incremental FCFS pass over n expected jobs under
// pol. withPost and withFaults mirror ReplayPolicy's nil-slice distinctions:
// they decide whether StepCall's post and faults arguments participate at all
// (validation included), so a wrapped slice-driven pass stays bit-identical.
func (d *Device) NewReplayState(n int, pol resil.Policy, withPost, withFaults bool) *ReplayState {
	st := &ReplayState{
		dev:        d,
		pol:        pol,
		withPost:   withPost,
		withFaults: withFaults,
		free:       make([]float64, d.pipelines),
		results:    make([]JobResult, 0, n),
	}
	if pol.QuarantineK > 0 && withFaults {
		st.faultLog = make([][]float64, d.pipelines)
	}
	return st
}

// Last returns the result of the most recently stepped job (nil before the
// first StepCall). The pointer is into the state's result slice; it is valid
// until the next StepCall.
func (st *ReplayState) Last() *JobResult {
	if len(st.results) == 0 {
		return nil
	}
	return &st.results[len(st.results)-1]
}

// StepCall admits, queues and serves one job. Arrivals must be non-decreasing
// across calls; service and post must be finite and non-negative. post and
// faults are ignored unless the state was built with the corresponding with*
// flag.
//
// priority (0 = highest) selects the job's admission bound via the policy's
// QueueBound, so under a priority-classed policy a nearly full queue refuses
// low-priority arrivals while still admitting high-priority ones; priority 0
// gets the full MaxQueue, the unclassed behavior.
//
// target is the job's latency deadline in cycles. Under a policy with
// DeadlineFactor > 0, a job whose earliest possible completion — the earliest
// pipeline free time plus its service — would land past arrival +
// DeadlineFactor·target is shed with resil.ErrDeadlineShed before the
// queue-bound check, so unmeetable work never occupies a pipeline. Target 0
// (or DeadlineFactor 0) disables the check.
func (st *ReplayState) StepCall(arrival, service, post float64, faults, priority int, target float64) error {
	i := st.n
	if i > 0 && arrival < st.prev {
		return fmt.Errorf("core: jobs not sorted by arrival")
	}
	if math.IsNaN(service) || math.IsInf(service, 0) || service < 0 {
		return fmt.Errorf("core: job %d service cycles %v (want finite, non-negative)", i, service)
	}
	if st.withPost {
		if math.IsNaN(post) || math.IsInf(post, 0) || post < 0 {
			return fmt.Errorf("core: job %d post cycles %v (want finite, non-negative)", i, post)
		}
	}
	if i == 0 {
		st.first = arrival
	}
	st.prev = arrival
	st.n++
	pol := st.pol
	if pol.DeadlineFactor > 0 && target > 0 {
		// Earliest possible start: the least-loaded pipeline's free time (the
		// same argmin dispatch below would use), never before the arrival.
		est := st.free[0]
		for k := 1; k < st.dev.pipelines; k++ {
			if st.free[k] < est {
				est = st.free[k]
			}
		}
		if est < arrival {
			est = arrival
		}
		if est+service > arrival+pol.DeadlineFactor*target {
			st.results = append(st.results, JobResult{Start: arrival, Pipeline: -1, Err: resil.ErrDeadlineShed})
			st.shed++
			st.shedDeadline++
			resil.MetricSheds.Inc()
			resil.MetricDeadlineSheds.Inc()
			return nil
		}
	}
	if pol.MaxQueue > 0 {
		for st.pendingHead < len(st.pending) && st.pending[st.pendingHead] <= arrival {
			st.pendingHead++
		}
		if len(st.pending)-st.pendingHead >= pol.QueueBound(priority) {
			st.results = append(st.results, JobResult{Start: arrival, Pipeline: -1, Err: resil.ErrShed})
			st.shed++
			resil.MetricSheds.Inc()
			return nil
		}
	}
	// Earliest-free pipeline.
	p := 0
	for k := 1; k < st.dev.pipelines; k++ {
		if st.free[k] < st.free[p] {
			p = k
		}
	}
	start := math.Max(arrival, st.free[p])
	done := start + service
	st.free[p] = done
	st.busy += service
	if done > st.lastDone {
		st.lastDone = done
	}
	latency := done - arrival
	if st.withPost && post > 0 {
		latency += post
	}
	st.results = append(st.results, JobResult{
		Queue:    start - arrival,
		Service:  service,
		Latency:  latency,
		Start:    start,
		Pipeline: p,
	})
	st.served++
	if pol.MaxQueue > 0 {
		st.pending = append(st.pending, start)
	}
	if st.faultLog != nil && faults > 0 {
		var quarantine bool
		st.faultLog[p], quarantine = BookFaults(st.faultLog[p], done, faults, pol)
		if quarantine {
			st.free[p] = done + st.dev.PipelineResetCycles() + pol.QuarantinePenaltyCycles
			st.quarantines++
		}
	}
	return nil
}

// Finish computes the batch statistics over every stepped job and returns
// the per-job results. The state must not be stepped again afterwards.
func (st *ReplayState) Finish() ([]JobResult, DeviceStats) {
	results := st.results
	devStats := DeviceStats{Jobs: st.n, Makespan: st.lastDone - st.first, Shed: st.shed, DeadlineShed: st.shedDeadline, Quarantines: st.quarantines}
	if devStats.Makespan > 0 {
		devStats.Utilization = st.busy / (float64(st.dev.pipelines) * devStats.Makespan)
	}
	devStats.SummarizeLatency(results, st.served)
	return results, devStats
}

// BookFaults books one served job's fault events, all at its completion time
// done, into its pipeline's sliding-window fault log and returns the updated
// log: events older than pol.QuarantineWindowCycles are dropped first, then
// the new ones appended. When the log reaches pol.QuarantineK it reports a
// quarantine (counted in resil.MetricQuarantines) and hands back the log
// cleared; the caller owns what a quarantine costs the pipeline.
func BookFaults(log []float64, done float64, faults int, pol resil.Policy) ([]float64, bool) {
	if w := pol.QuarantineWindowCycles; w > 0 {
		keep := 0
		for _, ts := range log {
			if ts >= done-w {
				log[keep] = ts
				keep++
			}
		}
		log = log[:keep]
	}
	for e := 0; e < faults; e++ {
		log = append(log, done)
	}
	if len(log) < pol.QuarantineK {
		return log, false
	}
	resil.MetricQuarantines.Inc()
	return log[:0], true
}

// SummarizeLatency fills the mean, P50 and P99 latency over the served jobs
// (nil Err) of results; served is their count, and with none the fields stay
// zero. Single-pass mean, then quickselect for the percentile samples: O(n)
// total, and the only latency copy is the selection scratch.
func (s *DeviceStats) SummarizeLatency(results []JobResult, served int) {
	if served == 0 {
		return
	}
	lat := make([]float64, 0, served)
	sum := 0.0
	for i := range results {
		if results[i].Err != nil {
			continue
		}
		lat = append(lat, results[i].Latency)
		sum += results[i].Latency
	}
	s.MeanLatency = sum / float64(len(lat))
	s.P50Latency = stats.SelectNth(lat, len(lat)/2)
	s.P99Latency = stats.SelectNth(lat, min(len(lat)-1, len(lat)*99/100))
}
