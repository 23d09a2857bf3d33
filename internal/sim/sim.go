// Package sim replays fleet-shaped (de)compression traffic against simulated
// CDPU devices, answering the deployment question end to end: for a service
// with a given offered load, how many pipelines does it take, what latency do
// callers see versus the software baseline, and how many Xeon cores does the
// offload retire? It composes the synthetic fleet (call mix), the corpus
// (payload bytes), the CDPU device model (queueing + cycles) and the Xeon
// cost model (baseline).
//
// The replay is sharded: call sampling and the arrival schedule are drawn
// serially (they are cheap and order-dependent); payload synthesis and
// functional execution fan out on Config.Workers goroutines (par.For) — each
// claims a tile of consecutive calls and runs them one after another through
// its leased coder, device clones and reused scratch buffers; and the FCFS
// queueing reduction runs as a partitioned discrete-event engine
// (internal/des): one event-queue partition per device instance — 4×Devices
// partitions, so a 128-device fleet replays as 128 independently advanceable
// event queues — advanced in parallel through the same loop and merged in a
// deterministic fixed order. Every per-call random draw comes from a stream
// keyed on (seed, call index) and every partition's events replay in (time,
// insertion) order, so the Report is byte-identical at any worker count.
package sim

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"cdpu/internal/cluster"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/des"
	"cdpu/internal/fault"
	"cdpu/internal/fleet"
	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/par"
	"cdpu/internal/prng"
	"cdpu/internal/resil"
	"cdpu/internal/stats"
	"cdpu/internal/traffic"
	"cdpu/internal/xeon"
)

// Replay-shape instruments. Updated only in the serial phases, so they add no
// contention to the worker pool and never perturb the Report. sim.calls,
// sim.call_bytes and sim.recosted_calls move once per Run, sim.prepares once
// per phase B.
var (
	metricSimCalls     = obs.Default().Counter("sim.calls")
	metricSimPrepares  = obs.Default().Counter("sim.prepares")
	metricSimRecosted  = obs.Default().Counter("sim.recosted_calls")
	metricSimWorkers   = obs.Default().Gauge("sim.workers")
	metricSimCallBytes = obs.Default().Histogram("sim.call_bytes")
)

// Config parameterizes a service replay.
type Config struct {
	// Seed drives sampling.
	Seed int64
	// Calls is the number of fleet calls to replay (0 = 10000).
	Calls int
	// OfferedGBps is the service's uncompressed (de)compression bandwidth
	// demand; arrivals are spaced to match it.
	OfferedGBps float64
	// Pipelines per device (one compression device, one decompression
	// device).
	Pipelines int
	// Placement locates both devices.
	Placement memsys.Placement
	// MaxCallBytes caps replayed call sizes for runtime (0 = 1 MiB).
	MaxCallBytes int
	// Workers bounds the goroutines of phases B and C (0 = GOMAXPROCS-1,
	// clamped to [1, 8]; negative is rejected). The Report does not depend on
	// it.
	Workers int
	// Trace, when non-nil, collects every call's per-block spans into a
	// Chrome trace-event timeline: one process per device, one exec lane and
	// one stream lane per pipeline. Tracing changes no modeled cycles — the
	// Report is byte-identical with Trace nil or set.
	Trace *obs.Trace
	// Resilience is the recovery policy threaded through the replay: retry
	// with backoff, software fallback, pipeline quarantine, and admission
	// control. The zero value aborts the replay on its first fault.
	Resilience resil.Policy
	// Storm, when non-nil, subjects the replay to a seeded chaos fault storm
	// (bit flips, memory faults, watchdog hangs at Storm.Rate). The storm's
	// draws come from a stream independent of the replay's own sampling, so
	// a stormed replay keeps the exact call mix of the healthy one.
	Storm *fault.Storm
	// Replicas turns each deviceOrder slot into a cluster.Group of N devices
	// behind the failover dispatcher (0/1 = a lone device: with the zero
	// Failover policy and no Lifecycle the one-replica group is a single FCFS
	// queue, bit for bit).
	Replicas int
	// Failover parameterizes the replica dispatcher: circuit breakers,
	// failover re-dispatch, hedging, crash detection and warm-restart costs.
	Failover cluster.FailoverPolicy
	// Lifecycle, when non-nil, subjects replicas to a seeded device-lifecycle
	// schedule (crash / hang / brownout windows); like Storm, its draws come
	// from an independent stream, so the call mix is unperturbed.
	Lifecycle *fault.Lifecycle
	// Devices fans each deviceOrder slot out into N device instances (0/1 =
	// one instance per slot, a 4-device fleet). Calls route to instances
	// round-robin within their slot in the serial arrival schedule, so the
	// routing — like every other per-call decision — is independent of worker
	// count. Each instance is its own discrete-event partition (its own FCFS
	// queue, or its own replica group in cluster mode, with a disjoint
	// lifecycle replica base), so a 128-device fleet replays as 128
	// independently advanceable partitions. Area scales with Devices.
	Devices int
	// Contention, when non-nil, makes the partitions contend the fleet-shared
	// resources (memory-fabric bandwidth, host-link doorbell ops, LLC
	// capacity) at deterministic epoch barriers: each epoch's aggregate
	// demand, summed in fixed partition order, stretches the next epoch's
	// service times (see des.Shared). This changes modeled arithmetic — it is
	// the honest cross-device coupling the per-device model lacks — so it is
	// opt-in; the Report remains byte-identical at any worker count, but not
	// to a Contention-nil run.
	Contention *des.Shared
	// EpochCycles is the barrier spacing on the modeled clock when Contention
	// is set (0 = des.DefaultEpochCycles).
	EpochCycles float64
	// Traffic, when enabled (CallsPerMcycle != 0), switches the replay to
	// open-loop arrivals: the schedule comes from a seeded modulated-Poisson
	// generator (diurnal rate curve, on/off bursts) instead of being spaced
	// from OfferedGBps, and every call carries the SLO class of its sampled
	// tenant. The zero value keeps the closed-loop schedule: arrivals spaced
	// from OfferedGBps, no tenants, no classes.
	Traffic traffic.Pattern
	// Tenants shapes the open-loop tenant population: a Zipf(s) rank
	// distribution over N tenants. Ignored unless Traffic is enabled.
	Tenants traffic.Tenants
	// SLO maps tenant ranks to service classes (gold/silver/bronze) with
	// per-class latency targets. Ignored unless Traffic is enabled.
	SLO traffic.SLO
	// Autoscale is the replica autoscaler threaded into each cluster group:
	// scale up from Min replicas when the admission queue reaches
	// UpQueueDepth — or, with UpBurn set, when the group's rolling SLO burn
	// rate crosses UpBurn — and drain back at DownQueueDepth / DownBurn.
	// Requires Replicas > 1; the zero value keeps every replica active.
	Autoscale traffic.Autoscale
	// Burn enables per-tenant SLO burn tracking over the replay's outcomes:
	// the top-K tenant ranks plus a seeded reservoir of the tail each keep
	// fast/slow rolling burn windows, and multi-window alerts surface as
	// Report.BurnAlerts (and per-class counters). Requires open-loop Traffic;
	// the zero value books no per-tenant state at all.
	Burn traffic.BurnConfig
}

func (c Config) withDefaults() Config {
	if c.Calls == 0 {
		c.Calls = 10000
	}
	if c.OfferedGBps == 0 {
		c.OfferedGBps = 2.0
	}
	if c.Pipelines == 0 {
		c.Pipelines = 1
	}
	if c.MaxCallBytes == 0 {
		c.MaxCallBytes = 1 << 20
	}
	if c.Workers == 0 {
		c.Workers = DefaultWorkers()
	}
	if c.Devices == 0 {
		c.Devices = 1
	}
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	// Open-loop traffic with a bounded queue defaults to class-differentiated
	// admission: shed bronze before gold. Explicit PriorityClasses (or an
	// unbounded queue) is left alone, and closed-loop replays never see this.
	if c.Traffic.Enabled() && c.Resilience.MaxQueue > 0 && c.Resilience.PriorityClasses == 0 {
		c.Resilience.PriorityClasses = traffic.NumClasses
	}
	return c
}

// DefaultWorkers is the worker-pool size a zero Config.Workers means, and the
// one exp's shared scheduler defaults to. It sizes the pool from GOMAXPROCS,
// not raw NumCPU: in a container limited to fewer logical CPUs than the host
// exposes, NumCPU would oversubscribe the pool with workers that only add
// scheduling churn.
func DefaultWorkers() int {
	return max(1, min(8, runtime.GOMAXPROCS(0)-1))
}

// Report summarizes a replay.
type Report struct {
	Calls             int
	UncompressedBytes int
	// XeonCoresNeeded is the number of baseline cores the same load would
	// occupy in software.
	XeonCoresNeeded float64
	// Device-side latency (microseconds at 2 GHz) and utilization.
	MeanLatencyUs float64
	P99LatencyUs  float64
	CompUtil      float64
	DecompUtil    float64
	// SoftwareMeanLatencyUs is the mean per-call software service time (no
	// queueing modeled on the CPU side — a lower bound for the baseline).
	SoftwareMeanLatencyUs float64
	// AreaMM2 is the total device silicon deployed.
	AreaMM2 float64
	// Recovery outcome totals. All zero on a healthy replay with no storm;
	// they reconcile exactly with the resil.* counter deltas.
	FaultedCalls  int // calls with at least one faulted dispatch
	RetryAttempts int // device re-dispatches after transient faults
	DegradedCalls int // calls served by the software fallback
	ShedCalls     int // calls rejected by admission control
	Quarantines   int // pipeline quarantine-and-reset events
	// GoodputBytes is the uncompressed bytes of calls actually served
	// (device or fallback) — UncompressedBytes minus shed traffic.
	GoodputBytes int
	// Cluster failover outcome totals. All zero outside cluster mode; they
	// reconcile exactly with the cluster.* counter deltas and the
	// per-replica dispatch gauges.
	Failovers         int     // re-dispatch hops to another replica
	HedgedCalls       int     // calls that fired a hedged dispatch
	HedgeWins         int     // hedges that beat their primary
	BreakerOpens      int     // circuit-breaker open transitions
	ReplicaRestarts   int     // warm restarts of rejoining crashed replicas
	UnavailableCycles float64 // summed modeled time replicas spent breaker-open
	// Open-loop traffic outcome totals. All zero outside open-loop mode
	// (Config.Traffic disabled); they reconcile exactly with the
	// traffic.class* counter deltas, and the PerClass rows sum to the
	// corresponding top-level totals.
	SLOViolations  int // served calls whose latency missed their class target
	AutoscaleUps   int // autoscaler replica activations across all groups
	AutoscaleDowns int // autoscaler replica drains across all groups
	// DeadlineSheds is the ShedCalls subset rejected by deadline-aware
	// admission (Resilience.DeadlineFactor): calls whose earliest possible
	// completion already missed factor × their class target. Reconciles with
	// the resil.deadline_sheds counter delta.
	DeadlineSheds int
	// WastedCycles is the device service cycles burned on calls that were
	// served but still missed their class latency target — the waste
	// deadline-aware admission exists to cut. Zero outside open-loop mode.
	WastedCycles float64
	// BurnAlerts is the total per-tenant SLO burn alerts raised by the
	// Config.Burn tracker (multi-window fast+slow burn over threshold, edge
	// triggered per tenant). Equals the sum of PerClass BurnAlerts and
	// reconciles with the traffic.classN.burn_alerts counter deltas.
	BurnAlerts int
	PerClass   [traffic.NumClasses]ClassReport
}

// ClassReport is one SLO class's slice of an open-loop replay: class 0 is
// gold, the last class is bronze. A fixed-size array field keeps Report
// directly comparable, which the byte-identity tests rely on.
type ClassReport struct {
	Calls         int // calls sampled into this class
	ShedCalls     int // rejected by class-differentiated admission
	SLOViolations int // served but over the class latency target
	GoodputBytes  int // uncompressed bytes of served calls
	BurnAlerts    int // per-tenant burn alerts raised by tenants of this class
}

// payloadKinds gives replayed calls realistic byte content.
var payloadKinds = []corpus.Kind{
	corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Table, corpus.HTML,
}

// deviceOrder fixes the replay's device iteration — compression before
// decompression, Snappy before ZStd — so latency merges and area sums never
// depend on map iteration or goroutine scheduling.
var deviceOrder = [...]struct {
	algo comp.Algorithm
	op   comp.Op
}{
	{comp.Snappy, comp.Compress},
	{comp.ZStd, comp.Compress},
	{comp.Snappy, comp.Decompress},
	{comp.ZStd, comp.Decompress},
}

const numDevices = len(deviceOrder)

func deviceIndex(a comp.Algorithm, op comp.Op) int {
	i := 0
	if a == comp.ZStd {
		i = 1
	}
	if op == comp.Decompress {
		i += 2
	}
	return i
}

// callSpec is everything phase B needs to execute one call, fixed during the
// serial sampling phase.
type callSpec struct {
	rec         fleet.CallRecord
	kind        corpus.Kind
	payloadSeed int64
	jitter      float64 // closed-loop spacing factor in [0.5, 1.5)
	dev         int
}

// scheduled is a call as one Run sees it: its spec, its place in that Run's
// arrival schedule and the device instance it routes to.
type scheduled struct {
	*callSpec
	arrival float64
	inst    int // device instance within the slot, in [0, Config.Devices)
	class   int // SLO class (0 in closed-loop mode, where no class exists)
	tenant  int // sampled tenant rank (0 in closed-loop mode)
}

// sampleCalls is phase A's call mix. The fleet model's sampler is stateful,
// so this stays single-threaded; it draws no payload bytes and is cheap. Each
// call's draws (payload kind, payload seed, arrival jitter) come from its own
// splitmix64 stream keyed on (seed, call index), so any worker reproduces them
// regardless of which shard the call lands on, and the call mix is the same in
// both arrival modes. Returns the specs, their summed uncompressed bytes and
// the summed software baseline cycles.
func sampleCalls(cfg Config) (specs []callSpec, bytes int, xeonCycles float64) {
	model := fleet.NewModel(cfg.Seed)
	specs = make([]callSpec, 0, cfg.Calls)
	for len(specs) < cfg.Calls {
		rec := model.SampleCall()
		// The CDPU serves the dominant pair; other algorithms stay on CPU.
		if rec.Algo != comp.Snappy && rec.Algo != comp.ZStd {
			continue
		}
		if rec.UncompressedBytes > cfg.MaxCallBytes {
			rec.UncompressedBytes = cfg.MaxCallBytes
		}
		r := prng.New(uint64(cfg.Seed) ^ (uint64(len(specs))+1)*prng.Gamma)
		s := callSpec{
			rec:         rec,
			kind:        payloadKinds[r.Intn(len(payloadKinds))],
			payloadSeed: int64(r.Next() >> 1),
			jitter:      0.5 + r.Float64(),
			dev:         deviceIndex(rec.Algo, rec.Op),
		}
		bytes += rec.UncompressedBytes
		xeonCycles += xeon.Cycles(rec.Algo, rec.Op, rec.Level, rec.UncompressedBytes)
		specs = append(specs, s)
	}
	return specs, bytes, xeonCycles
}

// schedule is what one Run derives from the call mix, serially. Closed loop,
// arrivals are spaced to the offered bandwidth (bytes / (GB/s) * cycles/ns,
// times each call's jitter); open loop, they come from the seeded traffic
// generator and carry the sampled tenant's rank and SLO class. Neither draws
// from a stream the call mix uses, so phase B never sees the schedule. Calls
// round-robin across their slot's device instances in call order, a pure
// function of the call sequence. touched lists, ascending, the calls cfg's
// faults reach: every call cfg.Storm hits and, under a Lifecycle, every call
// inside a brownout window of its own replica group. Returns the schedule,
// the arrival-clock end time and touched.
func schedule(specs []callSpec, cfg *Config) (calls []scheduled, at float64, touched []int) {
	var gen *traffic.Gen
	if cfg.Traffic.Enabled() {
		gen = traffic.NewGen(cfg.Traffic, cfg.Tenants, cfg.SLO, cfg.Seed)
	}
	cyclesPerByte := memsys.DeviceGHz / cfg.OfferedGBps
	var rr [numDevices]int
	calls = make([]scheduled, len(specs))
	for i := range specs {
		s := &calls[i]
		s.callSpec = &specs[i]
		s.inst = rr[s.dev] % cfg.Devices
		rr[s.dev]++
		if gen != nil {
			a := gen.Next()
			s.arrival, s.class, s.tenant, at = a.At, a.Class, a.Tenant, a.At
		} else {
			s.arrival = at
			at += float64(s.rec.UncompressedBytes) * cyclesPerByte * s.jitter
		}
		// Instance inst of a slot owns replicas [inst*Replicas,
		// (inst+1)*Replicas) of the lifecycle schedule's replica space.
		if _, _, hit := cfg.Storm.Draw(i); hit || cfg.Lifecycle.AnyBrownoutRange(s.inst*cfg.Replicas, cfg.Replicas, i) {
			touched = append(touched, i)
		}
	}
	return calls, at, touched
}

// devReduction is one partition's partial queueing reduction — one device
// instance (or one replica group) — produced in parallel during phase C and
// merged serially in partition order (slot-major, instance-minor; exactly
// deviceOrder when Devices is 1).
type devReduction struct {
	dev       *core.Device
	results   []core.JobResult
	idxs      []int
	stats     core.DeviceStats
	tot       cluster.Totals
	latencies []float64
	goodput   int
	shed      int
	wasted    float64 // service cycles of served calls over their class target
	classes   [traffic.NumClasses]ClassReport
	err       error
}

// summarize derives the merge-ready served latencies, goodput bytes and shed
// count from the partition's per-call results, in call order. slo, set only
// in open-loop mode, carries the per-class latency targets in cycles and
// turns on the per-class accounting; closed-loop replays pass nil and touch
// none of it.
func (red *devReduction) summarize(specs []scheduled, slo *[traffic.NumClasses]float64) {
	red.latencies = make([]float64, 0, len(red.results))
	for ji, r := range red.results {
		ci := red.idxs[ji]
		if r.Err != nil {
			red.shed++
			if slo != nil {
				cl := &red.classes[specs[ci].class]
				cl.Calls++
				cl.ShedCalls++
			}
			continue
		}
		red.latencies = append(red.latencies, r.Latency)
		red.goodput += specs[ci].rec.UncompressedBytes
		if slo != nil {
			cl := &red.classes[specs[ci].class]
			cl.Calls++
			cl.GoodputBytes += specs[ci].rec.UncompressedBytes
			if r.Latency > slo[specs[ci].class] {
				cl.SLOViolations++
				red.wasted += r.Service
			}
		}
	}
}

// phaseC is the queueing reduction Run drives: one devReduction per partition
// of perPart (slot-major, instance-minor), each covering exactly that
// partition's calls in call order. Production has one, runEngineReduction; the
// seam exists so the differential tests can run the same phases A, B and merge
// over their independent batch oracle (oracle_test.go).
type phaseC func(perPart [][]int, specs []scheduled, outs []execOut, cfg *Config) []devReduction

// Run replays cfg.Calls fleet calls through CDPU devices: Prepare, then
// Prepared.Run.
func Run(cfg Config) (*Report, error) { return run(cfg, runEngineReduction) }

func run(cfg Config, reduce phaseC) (*Report, error) {
	p, err := Prepare(cfg)
	if err != nil {
		return nil, err
	}
	return p.run(cfg, reduce)
}

// prepareKey names every Config field phases A and B read, after defaults.
// Prepared.Run refuses a config whose key differs from the one it was
// prepared with: a field phase B reads outside the key would replay stale
// outcomes.
type prepareKey struct {
	Seed         int64            // the call mix and payloads
	Calls        int              // how many calls are sampled
	MaxCallBytes int              // caps each call's size
	Placement    memsys.Placement // every device clone's timing
	Trace        bool             // whether execOuts carry spans
}

func (c *Config) prepareKey() prepareKey {
	return prepareKey{Seed: c.Seed, Calls: c.Calls, MaxCallBytes: c.MaxCallBytes, Placement: c.Placement, Trace: c.Trace != nil}
}

// Prepared is a replay with phases A and B done: the sampled call mix and
// every call's healthy execution outcome. Run completes it for any config with
// the same prepareKey: it re-derives the arrival schedule and instance
// routing, re-costs the calls its faults touch, and runs phase C, so a sweep
// over fields outside the key pays phase B once. Run never modifies a
// Prepared; concurrent Runs on one are safe.
type Prepared struct {
	key        prepareKey
	specs      []callSpec
	outs       []execOut
	bytes      int
	xeonCycles float64
}

// Prepare runs phase A's sampling and phase B, the healthy replay: synthesize
// each payload and run it through a functional device clone for its service
// cycles and watchdog budget, plus, when tracing, its per-block span layout.
// No fault reaches phase B. cfg is validated whole, as Run would.
func Prepare(cfg Config) (*Prepared, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	p := &Prepared{key: cfg.prepareKey()}
	p.specs, p.bytes, p.xeonCycles = sampleCalls(cfg)
	metricSimPrepares.Inc()
	p.outs = make([]execOut, len(p.specs))
	if err := execCalls(p.specs, nil, &cfg, p.outs); err != nil {
		return nil, err
	}
	return p, nil
}

// ErrNotPrepared is what Prepared.Run returns, naming the field, for a config
// whose phases A and B would differ from the prepared ones.
var ErrNotPrepared = errors.New("config differs from the prepared one")

// Run replays the prepared calls under cfg, which must have the key the
// Prepared was made with.
func (p *Prepared) Run(cfg Config) (*Report, error) { return p.run(cfg, runEngineReduction) }

func (p *Prepared) run(cfg Config, reduce phaseC) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if k := cfg.prepareKey(); k != p.key {
		a, b := reflect.ValueOf(k), reflect.ValueOf(p.key)
		for i := 0; i < a.NumField(); i++ {
			if !reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
				return nil, fmt.Errorf("sim: %w in %s", ErrNotPrepared, a.Type().Field(i).Name)
			}
		}
	}
	report := &Report{Calls: len(p.specs), UncompressedBytes: p.bytes}
	// The calls this Run's faults touch are re-costed on a copy of the
	// prepared outcomes; a Run that touches none copies nothing.
	specs, at, touched := schedule(p.specs, &cfg)
	metricSimRecosted.Add(int64(len(touched)))
	outs := p.outs
	if len(touched) > 0 {
		outs = slices.Clone(p.outs)
		if err := execCalls(p.specs, touched, &cfg, outs); err != nil {
			return nil, err
		}
	}

	// Counters move per Run, from this Run's outcomes, so each Run's deltas
	// reconcile with its own Report.
	metricSimCalls.Add(int64(len(specs)))
	metricSimWorkers.Set(float64(cfg.Workers))
	for i := range outs {
		o := &outs[i]
		metricSimCallBytes.Observe(int64(specs[i].rec.UncompressedBytes))
		if o.faults > 0 {
			report.FaultedCalls++
		}
		report.RetryAttempts += o.retries
		if o.degraded {
			report.DegradedCalls++
		}
	}
	resil.MetricRetries.Add(int64(report.RetryAttempts))
	resil.MetricFallbacks.Add(int64(report.DegradedCalls))

	// Phase C (partitioned discrete-event reduction, serial merge): each
	// device instance is one event-queue partition — its replica group (a lone
	// FCFS device being the one-replica group) is independent of every other
	// given the arrival schedule and instance routing — advanced in parallel
	// by the des engine, then merged in fixed partition order (slot-major,
	// instance-minor): latencies concatenate in partition order and are summed
	// in one loop, so the float accumulation order (and therefore the Report)
	// is bit-identical to a serial pass at any worker count.
	devices := cfg.Devices
	perPart := make([][]int, numDevices*devices)
	for i, s := range specs {
		perPart[s.dev*devices+s.inst] = append(perPart[s.dev*devices+s.inst], i)
	}
	clustered := cfg.clusterMode()
	reds := reduce(perPart, specs, outs, &cfg)
	if err := firstReductionError(reds, len(specs)); err != nil {
		return nil, err
	}
	latencies := make([]float64, 0, len(specs))
	for pid := range reds {
		red := &reds[pid]
		slot := deviceOrder[pid/devices]
		latencies = append(latencies, red.latencies...)
		report.ShedCalls += red.shed
		report.GoodputBytes += red.goodput
		report.Quarantines += red.stats.Quarantines
		report.DeadlineSheds += red.stats.DeadlineShed
		report.WastedCycles += red.wasted
		for cl := range red.classes {
			report.PerClass[cl].Calls += red.classes[cl].Calls
			report.PerClass[cl].ShedCalls += red.classes[cl].ShedCalls
			report.PerClass[cl].SLOViolations += red.classes[cl].SLOViolations
			report.PerClass[cl].GoodputBytes += red.classes[cl].GoodputBytes
			report.SLOViolations += red.classes[cl].SLOViolations
		}
		if clustered {
			mergeClusterTotals(report, pid, &red.tot)
		}
		if cfg.Trace != nil {
			emitDeviceTrace(cfg.Trace, pid, slot.algo, slot.op, pid%devices, devices, cfg.Replicas, cfg.Pipelines, red.idxs, red.results, outs)
		}
		if slot.op == comp.Compress {
			report.CompUtil = max(report.CompUtil, red.stats.Utilization)
		} else {
			report.DecompUtil = max(report.DecompUtil, red.stats.Utilization)
		}
	}
	if cfg.Burn.Enabled() {
		burnPass(&cfg, specs, reds, report)
	}
	publishClassMetrics(report)
	if len(latencies) == 0 {
		return nil, fmt.Errorf("sim: no device traffic")
	}
	sum := 0.0
	for _, l := range latencies {
		sum += l
	}
	const cyclesPerUs = memsys.DeviceGHz * 1e3
	report.MeanLatencyUs = sum / float64(len(latencies)) / cyclesPerUs
	report.P99LatencyUs = stats.P99(latencies) / cyclesPerUs

	// Baseline: the same load on Xeon cores.
	wallSeconds := at / (memsys.DeviceGHz * 1e9)
	if wallSeconds > 0 {
		report.XeonCoresNeeded = xeon.Seconds(p.xeonCycles) / wallSeconds
	}
	report.SoftwareMeanLatencyUs = xeon.Seconds(p.xeonCycles/float64(len(specs))) * 1e6

	// Silicon: every deployed device instance (areas already share interfaces
	// within each device; a real SoC would share across directions too, so
	// this is the conservative bound). Cluster mode deploys Replicas full
	// copies of each instance, and Devices fans each slot out N-wide.
	for pid := range reds {
		report.AreaMM2 += reds[pid].dev.Area().Total() * float64(cfg.Replicas)
	}
	return report, nil
}

// emitDeviceTrace lifts one device's per-call span layouts to absolute replay
// time using each job's queueing result, emitting them on the pipeline the
// job actually ran on. Exec-side blocks share a lane per pipeline (they are
// sequential within a call); the overlapping bulk stream gets its own lane so
// the viewer shows streaming concurrent with execution rather than nested
// inside it. In cluster mode each replica contributes its own lane block
// (JobResult.Pipeline encodes replica*pipelines+pipeline). With multiple
// device instances per slot, each partition is its own trace process, named
// with its instance index. Called serially per partition in fixed order, so
// the trace file is deterministic.
func emitDeviceTrace(tr *obs.Trace, pid int, algo comp.Algorithm, op comp.Op, inst, devices, replicas, pipelines int, idxs []int, results []core.JobResult, outs []execOut) {
	dir := "C"
	if op == comp.Decompress {
		dir = "D"
	}
	name := fmt.Sprintf("%s-%s", algo, dir)
	if devices > 1 {
		name = fmt.Sprintf("%s#%d", name, inst)
	}
	tr.SetProcessName(pid, name)
	for lane := 0; lane < replicas*pipelines; lane++ {
		name := fmt.Sprintf("pipe %d", lane)
		if replicas > 1 {
			name = fmt.Sprintf("r%d pipe %d", lane/pipelines, lane%pipelines)
		}
		tr.SetThreadName(pid, lane*2, name+" exec")
		tr.SetThreadName(pid, lane*2+1, name+" stream")
	}
	for ji, r := range results {
		if r.Err != nil || r.Pipeline < 0 {
			continue // shed before dispatch or served in software: nothing ran
		}
		for _, sp := range outs[idxs[ji]].spans {
			tid := r.Pipeline * 2
			if sp.Block == core.BlockStream {
				tid++
			}
			tr.AddSpan(pid, tid, sp.Block, r.Start+sp.Start, sp.Dur, sp.Bytes)
		}
	}
}

// tileSize is phase B's claim unit — one atomic increment hands a worker 64
// consecutive calls, cutting counter contention 64x versus per-call claims
// while keeping the tail balanced.
const tileSize = 64

// shard is one worker's leased execution state: a pooled Coder for
// decompress-op payload synthesis, single-pipeline device clones (compress-op
// calls run them size-only, decompress-op calls planned), and the scratch
// buffers that take steady-state replay to zero allocations per call. plain
// outlives the device call it feeds: a planned decompression's Result.Output
// is plain itself. Shards are recycled through a process-wide pool across Run
// invocations, so repeated Runs (benchmark loops, scaling sweeps) skip device
// construction entirely.
type shard struct {
	placement memsys.Placement
	traced    bool
	coder     *comp.Coder
	gen       corpus.Gen
	devs      [numDevices]*core.Device
	plain     []byte // the current call's synthesized payload
	enc       []byte // frame scratch: size-only for exec, real for a bit flip or the fallback
}

// shardPool recycles shards across Run invocations. Entries are keyed by
// construction parameters (placement, traced); a Get that pulls a mismatched
// shard drops it and builds fresh.
var shardPool sync.Pool

func getShard(placement memsys.Placement, traced bool) (*shard, error) {
	if v := shardPool.Get(); v != nil {
		sh := v.(*shard)
		if sh.placement == placement && sh.traced == traced {
			return sh, nil
		}
	}
	return newShard(placement, traced)
}

func newShard(placement memsys.Placement, traced bool) (*shard, error) {
	sh := &shard{placement: placement, traced: traced, coder: comp.NewCoder()}
	for d, slot := range deviceOrder {
		dev, err := core.NewDevice(core.Config{Algo: slot.algo, Op: slot.op, Placement: placement}, 1)
		if err != nil {
			return nil, err
		}
		dev.SetTracing(traced)
		// Result reuse recycles each clone's Result and output buffer across
		// calls; the shard consumes every result before its next Exec.
		// Traced runs keep fresh Results: execOut.spans outlives the call.
		dev.SetResultReuse(!traced)
		sh.devs[d] = dev
	}
	return sh, nil
}

// execTile runs positions [lo, hi) of a call list one after another:
// synthesize the payload into the shard's reused buffer, then execute it —
// healthy when idxs is nil and the list is every call in order (Prepare), a
// re-cost over the call's outcome when the list is idxs (a Run). An error
// names the failing call.
func (sh *shard) execTile(specs []callSpec, idxs []int, lo, hi int, cfg *Config, outs []execOut) error {
	for k := lo; k < hi; k++ {
		i := k
		if idxs != nil {
			i = idxs[k]
		}
		s := &specs[i]
		sh.plain = sh.gen.AppendGenerate(sh.plain[:0], s.kind, s.rec.UncompressedBytes, s.payloadSeed)
		var err error
		if idxs == nil {
			outs[i], err = sh.execOne(s, sh.plain)
		} else {
			err = sh.recostCall(s, i, cfg, sh.plain, &outs[i])
		}
		if err != nil {
			return fmt.Errorf("sim: call %d: %w", i, err)
		}
	}
	return nil
}

// execOne runs one call healthy and keeps only what phase C reads of it: the
// service cycles, the watchdog budget and, when tracing, the spans.
func (sh *shard) execOne(s *callSpec, plain []byte) (execOut, error) {
	res, err := sh.exec(s, plain)
	if err != nil {
		return execOut{}, err
	}
	// The watchdog budget's bytes mirror the real watchdog's post-call
	// accounting where the sizes are knowable up front: a compression call's
	// output size is unknown before it runs, so its budget covers the input.
	outB := res.OutputBytes
	if s.rec.Op == comp.Compress {
		outB = 0
	}
	budget := core.Config{Algo: s.rec.Algo, Op: s.rec.Op, Placement: sh.placement}.WatchdogBudget(res.InputBytes, outB)
	return execOut{service: res.Cycles, budget: budget, spans: res.Spans}, nil
}

// execCalls runs a call list on cfg.Workers goroutines, 64-call tiles at a
// time (par.For), writing each outcome to outs by call index: every call of
// specs, healthy, when idxs is nil; else the ascending calls of idxs, each
// re-costed over its outcome. Each call's outcome derives only from its spec
// and the seeded storm and backoff streams, so outs is independent of worker
// count and scheduling. A tile runs to its first error, so the lowest failing
// tile's error, which For returns, is the first a serial run would hit.
func execCalls(specs []callSpec, idxs []int, cfg *Config, outs []execOut) error {
	n := len(specs)
	if idxs != nil {
		n = len(idxs)
	}
	tiles := (n + tileSize - 1) / tileSize
	shards := make([]*shard, max(1, min(cfg.Workers, tiles)))
	defer func() {
		for _, sh := range shards {
			if sh != nil {
				shardPool.Put(sh)
			}
		}
	}()
	_, err := par.For(tiles, cfg.Workers, func(w, t int) error {
		if shards[w] == nil {
			sh, err := getShard(cfg.Placement, cfg.Trace != nil)
			if err != nil {
				return err
			}
			shards[w] = sh
		}
		lo := t * tileSize
		return shards[w].execTile(specs, idxs, lo, min(lo+tileSize, n), cfg, outs)
	})
	return err
}
