package main

import (
	"fmt"
	"time"

	"cdpu"
	"cdpu/internal/cluster"
	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/des"
	"cdpu/internal/exp"
	"cdpu/internal/fleet"
	"cdpu/internal/hcbench"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/stats"
	"cdpu/internal/traffic"
	"cdpu/internal/xeon"
	"cdpu/internal/zstdlite"
)

// The shadow passes below rebuild each workload's pipeline out of exported
// functions, at one worker, with a span around every call into a layer. They
// are not the program under test — the end-to-end numbers come from the
// untraced reps — but they run the same layers on the same seeded inputs, so
// they say where a rep's time goes.

// slots is sim's device order: compression before decompression, Snappy
// before ZStd.
var slots = [4]struct {
	algo comp.Algorithm
	op   comp.Op
}{
	{comp.Snappy, comp.Compress}, {comp.ZStd, comp.Compress},
	{comp.Snappy, comp.Decompress}, {comp.ZStd, comp.Decompress},
}

func slotOf(a comp.Algorithm, op comp.Op) int {
	i := 0
	if a == comp.ZStd {
		i = 1
	}
	if op == comp.Decompress {
		i += 2
	}
	return i
}

// splitmix is the harness's own per-call stream (payload kind and seed).
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// shadowCall is one call of the shadow replay.
type shadowCall struct {
	rec     fleet.CallRecord
	arrival float64
	slot    int
	inst    int
	class   int
	tenant  int
	service float64 // modeled cycles, from core.exec
}

// shadowReplay is the traced pass of the replay workloads. ref is the
// reference Report and res the untraced reps at W workers, their times scaled
// by scale.
func shadowReplay(r *run, cfg sim.Config, ref *sim.Report, scale float64, res reps) error {
	calls := float64(ref.Calls)

	// The simulator itself, from outside: one warm replay at one worker, and
	// one more with sim's own Chrome trace on.
	cfg.Workers = 1
	speedBefore := r.hostSpeed(1)
	w1, err := since(func() error { _, err := sim.Run(cfg); return err })
	if err != nil {
		return err
	}
	speedBetween := r.hostSpeed(1)
	traced := cfg
	traced.Trace = obs.NewTrace(2.0)
	wt, err := since(func() error { _, err := sim.Run(traced); return err })
	if err != nil {
		return err
	}
	// Measurements taken at different moments of the run are compared at
	// reference speed, each by the calibration points around it.
	w1Ref := w1.Seconds() * (speedBefore + speedBetween) / 2
	r.set("sim.ns_per_call_w1", float64(w1.Nanoseconds())/calls)
	if r.row.CPUs >= 2 && r.w >= 2 {
		// With one CPU the W-worker reps ran at one worker too; a ratio of
		// the two says nothing about scaling.
		r.set("sim.parallel_speedup", w1Ref*scale/res.seconds())
	}
	r.set("sim.trace_overhead_frac", wt.Seconds()/w1.Seconds()-1)
	r.set("sim.p99_us", ref.P99LatencyUs)
	r.set("sim.mean_latency_us", ref.MeanLatencyUs)
	r.set("sim.shed_frac", float64(ref.ShedCalls)/calls)
	r.set("sim.degraded_frac", float64(ref.DegradedCalls)/calls)
	if gold := ref.PerClass[0]; gold.Calls > 0 {
		r.set("sim.gold_violation_frac", float64(gold.SLOViolations)/float64(gold.Calls))
	}

	tr := r.tr
	k, err := newKit(tr)
	if err != nil {
		return err
	}
	cacheBefore := zstdlite.DecodeTableCacheStats()
	start := time.Now()

	// Phases A and B, call by call.
	openLoop := cfg.Traffic.Enabled()
	model := fleet.NewModel(cfg.Seed)
	var arrivals *traffic.Gen
	if openLoop {
		arrivals = traffic.NewGen(cfg.Traffic, cfg.Tenants, cfg.SLO, cfg.Seed)
	}
	maxBytes := cfg.MaxCallBytes
	if maxBytes == 0 {
		maxBytes = 1 << 20
	}
	devices := max(1, cfg.Devices)
	var devs [4]*core.Device
	for s, slot := range slots {
		if devs[s], err = core.NewDevice(core.Config{Algo: slot.algo, Op: slot.op}, 1); err != nil {
			return err
		}
	}
	coder := comp.NewCoder()
	var gen corpus.Gen
	var plain, frame []byte
	var rr [4]int
	var clock float64
	scs := make([]shadowCall, ref.Calls)
	for i := range scs {
		sc := &scs[i]
		callID := tr.begin(0, i, "", "call", false)

		id := tr.begin(callID, i, "fleet", "fleet.sample", false)
		for {
			sc.rec = model.SampleCall()
			if sc.rec.Algo == comp.Snappy || sc.rec.Algo == comp.ZStd {
				break
			}
		}
		tr.end(id, 0)
		sc.rec.UncompressedBytes = min(sc.rec.UncompressedBytes, maxBytes)
		sc.slot = slotOf(sc.rec.Algo, sc.rec.Op)
		sc.inst = rr[sc.slot] % devices
		rr[sc.slot]++
		h := splitmix(uint64(cfg.Seed) ^ uint64(i+1)*0x9e3779b97f4a7c15)
		kind := codecKinds[h%uint64(len(codecKinds))]

		if openLoop {
			id = tr.begin(callID, i, "traffic", "traffic.next", false)
			a := arrivals.Next()
			tr.end(id, 0)
			sc.arrival, sc.tenant, sc.class = a.At, a.Tenant, a.Class
		} else {
			// Closed loop: space arrivals to 2 GB/s at 2 GHz, as sim does.
			sc.arrival = clock
			clock += float64(sc.rec.UncompressedBytes) * (0.5 + float64(splitmix(h)>>11)/(1<<53))
		}

		id = tr.begin(callID, i, "corpus", "corpus.generate", false)
		plain = gen.AppendGenerate(plain[:0], kind, sc.rec.UncompressedBytes, int64(splitmix(h+1)>>1))
		tr.end(id, len(plain))

		// A decompression call's input is synthesized by compressing the
		// payload in software; like sim, a ZStd frame is encoded size-only
		// and handed to the device with its Plan, never parsed.
		input := plain
		var plan *zstdlite.Plan
		var real []byte // a decodable frame of the same payload, for the replayed decode
		if sc.rec.Op == comp.Decompress {
			id = tr.begin(callID, i, "comp", "comp.compress", false)
			frame, plan, err = coder.AppendCompressPlanSizeOnly(frame[:0], sc.rec.Algo, sc.rec.Level, min(sc.rec.WindowLog, 17), plain)
			tr.end(id, len(plain))
			if err != nil {
				return fmt.Errorf("call %d: %w", i, err)
			}
			if sc.rec.Algo == comp.ZStd {
				k.sizeOnlyChild(id, i, plain)
			}
			real = k.encodeChildren(id, i, sc.rec.Algo, false, plain)
			input = frame
		}

		id = tr.begin(callID, i, "core", "core.exec", false)
		var out *core.Result
		if plan != nil {
			out, err = devs[sc.slot].ExecPlanned(input, plan, plain)
		} else {
			out, err = devs[sc.slot].Exec(input)
		}
		tr.end(id, len(plain))
		if err != nil {
			return fmt.Errorf("call %d: %w", i, err)
		}
		sc.service = out.Cycles
		if sc.rec.Op == comp.Compress {
			k.encodeChildren(id, i, sc.rec.Algo, true, plain)
		} else {
			r.check(k.decodeChildren(id, i, sc.rec.Algo, real), "call %d: replayed decode failed", i)
		}
		tr.end(callID, len(plain))
	}

	// Phase C and the serial tail.
	perPart := make([][]int, len(slots)*devices)
	for i := range scs {
		p := scs[i].slot*devices + scs[i].inst
		perPart[p] = append(perPart[p], i)
	}
	var latencies []float64
	if cfg.Replicas > 1 {
		latencies, err = shadowCluster(r, cfg, scs, perPart)
	} else {
		latencies, err = shadowFCFS(r, cfg, scs, perPart)
	}
	if err != nil {
		return err
	}
	id := tr.begin(0, -1, "stats", "stats.p99", false)
	stats.P99(latencies)
	tr.end(id, 8*len(latencies))
	r.set("stats.p99_ns_per_sample", float64(tr.dur(id).Nanoseconds())/float64(len(latencies)))

	wall := time.Since(start)
	layerMetrics(r, k)
	cache := zstdlite.DecodeTableCacheStats()
	if n := cache.Hits + cache.Misses - cacheBefore.Hits - cacheBefore.Misses; n > 0 {
		r.set("zstdlite.table_cache_hit_frac", float64(cache.Hits-cacheBefore.Hits)/float64(n))
	}
	passSpeed := (speedBetween + r.hostSpeed(1)) / 2
	r.set("sim.unattributed_frac", 1-tr.firstHand().Seconds()*passSpeed/w1Ref)
	r.set("bench.trace_overhead_frac", wall.Seconds()*passSpeed/w1Ref-1)
	return nil
}

// shadowFCFS is phase C of a single-device replay: one FCFS pass per device
// instance over the measured service cycles.
func shadowFCFS(r *run, cfg sim.Config, scs []shadowCall, perPart [][]int) ([]float64, error) {
	tr := r.tr
	var latencies []float64
	var total time.Duration
	for p, idxs := range perPart {
		if len(idxs) == 0 {
			continue
		}
		slot := slots[p/max(1, cfg.Devices)]
		dev, err := core.NewDevice(core.Config{Algo: slot.algo, Op: slot.op}, max(1, cfg.Pipelines))
		if err != nil {
			return nil, err
		}
		jobs := make([]core.Job, len(idxs))
		svc := make([]float64, len(idxs))
		for j, i := range idxs {
			jobs[j] = core.Job{Arrival: scs[i].arrival}
			svc[j] = scs[i].service
		}
		id := tr.begin(0, -1, "core", "core.replay", false)
		results, _, err := dev.ReplayPolicy(jobs, svc, nil, nil, resil.Policy{})
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		total += tr.dur(id)
		for _, res := range results {
			latencies = append(latencies, res.Latency)
		}
	}
	r.set("core.replay_ns_per_job", float64(total.Nanoseconds())/float64(len(scs)))
	return latencies, nil
}

// shadowCluster is phase C of the overloaded replay, twice over: every
// partition's replica group replayed directly (cluster.replay), then the same
// arrivals driven through the discrete-event engine over plain FCFS steppers
// (des.run), then the burn pass over the outcomes.
func shadowCluster(r *run, cfg sim.Config, scs []shadowCall, perPart [][]int) ([]float64, error) {
	tr := r.tr
	devices := max(1, cfg.Devices)
	target := func(class int) float64 { return cfg.SLO.TargetCycles(class) }
	pol := cfg.Resilience
	if pol.PriorityClasses == 0 {
		pol.PriorityClasses = traffic.NumClasses // sim's default for open-loop replays with a bounded queue
	}

	var latencies []float64
	var tot cluster.Totals
	var total time.Duration
	bad := make([]bool, len(scs))
	for p, idxs := range perPart {
		if len(idxs) == 0 {
			continue
		}
		slot := slots[p/devices]
		devCfg := core.Config{Algo: slot.algo, Op: slot.op}
		dev, err := core.NewDevice(devCfg, cfg.Pipelines)
		if err != nil {
			return nil, err
		}
		g := &cluster.Group{
			Replicas: cfg.Replicas, Pipelines: cfg.Pipelines,
			ResetCycles: dev.PipelineResetCycles(), Unit: devCfg.Name(),
			Resil: pol, Policy: cfg.Failover, Lifecycle: cfg.Lifecycle,
			ReplicaBase: (p % devices) * cfg.Replicas, Autoscale: cfg.Autoscale,
		}
		calls := make([]cluster.Call, len(idxs))
		for j, i := range idxs {
			sc := &scs[i]
			calls[j] = cluster.Call{
				Arrival: sc.arrival, Index: i, Service: sc.service,
				HangBudget: devCfg.WatchdogBudget(sc.rec.UncompressedBytes, 0),
				Software:   xeon.Seconds(xeon.Cycles(sc.rec.Algo, sc.rec.Op, sc.rec.Level, sc.rec.UncompressedBytes)) * 2e9,
				Bytes:      sc.rec.UncompressedBytes, Priority: sc.class, Target: target(sc.class),
			}
		}
		id := tr.begin(0, -1, "cluster", "cluster.replay", false)
		results, _, t, err := g.Replay(calls)
		tr.end(id, 0)
		if err != nil {
			return nil, err
		}
		total += tr.dur(id)
		tot.Failovers += t.Failovers
		tot.HedgedCalls += t.HedgedCalls
		tot.HedgeWins += t.HedgeWins
		for j, res := range results {
			if res.Err != nil {
				bad[idxs[j]] = true
				continue
			}
			latencies = append(latencies, res.Latency)
			bad[idxs[j]] = res.Latency > target(scs[idxs[j]].class)
		}
	}
	n := float64(len(scs))
	r.set("cluster.step_ns_per_call", float64(total.Nanoseconds())/n)
	r.set("cluster.failover_frac", float64(tot.Failovers)/n)
	if tot.HedgedCalls > 0 {
		r.set("cluster.hedge_win_frac", float64(tot.HedgeWins)/float64(tot.HedgedCalls))
	}

	// The event engine, over one FCFS stepper per partition.
	parts := make([]des.Partition, 0, len(perPart))
	for p, idxs := range perPart {
		slot := slots[p/devices]
		dev, err := core.NewDevice(core.Config{Algo: slot.algo, Op: slot.op}, cfg.Pipelines)
		if err != nil {
			return nil, err
		}
		sp := &shadowPart{scs: scs, st: dev.NewReplayState(len(idxs), pol, false, false), stretch: 1, target: target}
		for _, i := range idxs {
			sp.q.Push(des.Event{Time: scs[i].arrival, Kind: des.Arrival, Call: i})
		}
		parts = append(parts, sp)
	}
	eng := des.Engine{Workers: 1, EpochCycles: cfg.EpochCycles, Shared: cfg.Contention, Parts: parts}
	id := tr.begin(0, -1, "des", "des.run", false)
	errs := eng.Run()
	tr.end(id, 0)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	events := 0
	for _, p := range parts {
		events += p.(*shadowPart).events
	}
	r.set("des.engine_events_per_s", float64(events)/tr.dur(id).Seconds())

	// The event queue alone, at a depth of 1000.
	var q des.Queue
	for i := 0; i < 1000; i++ {
		q.Push(des.Event{Time: float64(splitmix(uint64(i)) >> 40)})
	}
	const churn = 200000
	id = tr.begin(0, -1, "des", "des.queue", false)
	for i := 0; i < churn; i++ {
		ev, _ := q.Pop()
		ev.Time += float64(splitmix(uint64(i))>>40) + 1
		q.Push(ev)
	}
	tr.end(id, 0)
	r.set("des.queue_ns_per_event", float64(tr.dur(id).Nanoseconds())/churn)

	// The serial burn pass: every outcome, in call order.
	bt := traffic.NewBurnTracker(cfg.Burn, cfg.Seed)
	id = tr.begin(0, -1, "traffic", "traffic.burn", false)
	for i := range scs {
		bt.Observe(scs[i].arrival, scs[i].tenant, scs[i].class, bad[i])
	}
	tr.end(id, 0)
	r.set("traffic.burn_ns_per_observe", float64(tr.dur(id).Nanoseconds())/n)
	return latencies, nil
}

// shadowPart is one harness partition of the event engine: a queue of
// arrivals over a core.ReplayState, with the completions fed back as events
// so the shared-resource model has demand to contend.
type shadowPart struct {
	q       des.Queue
	st      *core.ReplayState
	scs     []shadowCall
	target  func(class int) float64
	stretch float64
	demand  des.Demand
	events  int
}

func (p *shadowPart) NextTime() (float64, bool) {
	ev, ok := p.q.Peek()
	return ev.Time, ok
}

func (p *shadowPart) Advance(limit float64) error {
	for {
		ev, ok := p.q.Peek()
		if !ok || ev.Time >= limit {
			return nil
		}
		p.q.Pop()
		p.events++
		sc := &p.scs[ev.Call]
		if ev.Kind == des.ServiceDone {
			p.demand.StreamBytes += float64(sc.rec.UncompressedBytes)
			p.demand.BusyCycles += ev.X
			continue
		}
		if err := p.st.StepCall(sc.arrival, sc.service*p.stretch, 0, 0, sc.class, p.target(sc.class)); err != nil {
			return err
		}
		p.demand.LinkOps++
		if res := p.st.Last(); res.Err == nil && res.Pipeline >= 0 {
			p.q.Push(des.Event{Time: res.Start + res.Service, Kind: des.ServiceDone, Call: ev.Call, X: res.Service})
		}
	}
}

func (p *shadowPart) EpochDemand() des.Demand {
	d := p.demand
	p.demand = des.Demand{}
	return d
}

func (p *shadowPart) SetStretch(s des.Stretch) { p.stretch = s.Service }

// firstHand sums the time of every span that is not a replay and belongs to a
// layer: the share of the pass spent doing the pipeline's own work once.
func (t *tracer) firstHand() time.Duration {
	var d time.Duration
	for i := range t.spans {
		if s := &t.spans[i]; !s.Replayed && s.Layer != "" {
			d += time.Duration(s.EndNs - s.StartNs)
		}
	}
	return d
}

// layerMetrics turns the recorded spans into the generic four per layer and
// every span-derived rate. A metric whose spans were never recorded is left
// out.
func layerMetrics(r *run, k *kit) {
	tr := r.tr
	totals := tr.byLayer()
	var busy time.Duration
	for _, lt := range totals {
		busy += lt.busy
	}
	for _, name := range layers {
		lt := totals[name]
		if lt == nil {
			continue
		}
		r.set(name+".ops", float64(lt.ops))
		r.set(name+".bytes", float64(lt.bytes))
		r.set(name+".busy_s", lt.busy.Seconds())
		r.set(name+".busy_frac", lt.busy.Seconds()/busy.Seconds())
	}

	// Rates: MB/s (or Msym/s) over a span name, ns per span over another.
	for metricName, spanName := range map[string]string{
		"lz77.parse_mbps": "lz77.parse", "lz77.reconstruct_mbps": "lz77.reconstruct",
		"huffman.encode_mbps": "huffman.encode", "huffman.decode_mbps": "huffman.decode",
		"fse.encode_msym_per_s": "fse.encode", "fse.decode_msym_per_s": "fse.decode",
		"bits.reader_mbps": "bits.read", "bits.writer_mbps": "bits.write",
		"snappy.encode_mbps": "snappy.encode", "snappy.decode_mbps": "snappy.decode",
		"zstdlite.encode_mbps": "zstdlite.encode", "zstdlite.decode_mbps": "zstdlite.decode",
		"zstdlite.size_only_encode_mbps": "zstdlite.encode_size_only",
	} {
		if d, bytes, n := tr.rate(spanName, nil); n > 0 && d > 0 {
			r.set(metricName, float64(bytes)/1e6/d.Seconds())
		}
	}
	for metricName, spanName := range map[string]string{
		"fleet.sample_ns_per_call": "fleet.sample", "traffic.gen_ns_per_arrival": "traffic.next",
		"huffman.build_ns_per_table": "huffman.build", "core.exec_ns_per_call": "core.exec",
	} {
		if d, _, n := tr.rate(spanName, nil); n > 0 {
			r.set(metricName, float64(d.Nanoseconds())/float64(n))
		}
	}
	if d, bytes, n := tr.rate("corpus.generate", func(s *span) bool { return s.Bytes >= 64<<10 }); n > 0 {
		r.set("corpus.gen_mbps", float64(bytes)/1e6/d.Seconds())
	}
	if d, _, n := tr.rate("corpus.generate", func(s *span) bool { return s.Bytes <= 4<<10 }); n > 0 {
		r.set("corpus.gen_ns_per_call_4k", float64(d.Nanoseconds())/float64(n))
	}

	// The device model's own cost: core.exec minus the bare codec call
	// replayed on the same payload.
	var exec, codec time.Duration
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Name == "core.exec" {
			exec += time.Duration(s.EndNs - s.StartNs)
		} else if s.Replayed && tr.spans[s.Parent-1].Name == "core.exec" {
			codec += time.Duration(s.EndNs - s.StartNs)
		}
	}
	if exec > 0 {
		r.set("core.model_overhead_frac", 1-codec.Seconds()/exec.Seconds())
	}

	if st := k.lzStats(); st.WaysChecked > 0 {
		r.set("lz77.false_probe_frac", float64(st.FalseProbes)/float64(st.WaysChecked))
		r.set("lz77.match_byte_frac", float64(st.MatchBytes)/float64(st.MatchBytes+st.LiteralBytes))
	}
}

// shadowDSE is the traced pass of dse-sweep: the suite generator on its own,
// every figure through the exp scheduler cold and then warm, and each
// figure's 64K near-core corner run directly through the core model. res is
// the untraced passes at W workers, their figure times scaled by scale.
func shadowDSE(r *run, figs []string, cfg exp.Config, scale []float64, res reps) error {
	tr := r.tr
	k, err := newKit(tr)
	if err != nil {
		return err
	}
	speedBefore := r.hostSpeed(1)
	start := time.Now()

	// The scheduler: every figure cold at one worker, then again warm.
	exp.SetWorkers(1)
	var cold, coldScaled, warm time.Duration
	for _, name := range []string{"exp.run", "exp.run_warm"} {
		for i, fig := range figs {
			e, err := exp.ByID(fig)
			if err != nil {
				return err
			}
			id := tr.begin(0, -1, "exp", name, false)
			_, err = e.Run(cfg)
			tr.end(id, 0)
			if err != nil {
				return err
			}
			if name == "exp.run" {
				cold += tr.dur(id)
				coldScaled += time.Duration(float64(tr.dur(id)) * scale[i])
			} else {
				warm += tr.dur(id)
			}
		}
	}
	memo := exp.RunCacheStats()
	r.set("exp.config_runs_per_s", float64(memo.Misses)/cold.Seconds())
	r.set("exp.warm_pass_s", warm.Seconds())
	r.set("exp.memo_hit_frac", float64(memo.Hits)/float64(memo.Hits+memo.Misses))

	// The suite generator: the chunk pool alone, then the four suites.
	id := tr.begin(0, -1, "corpus", "corpus.generate", false)
	files := corpus.StandardSuite()
	if r.opt.smoke {
		files = corpus.SmallSuite()
	}
	n := 0
	for _, f := range files {
		n += len(f.Data)
	}
	tr.end(id, n)
	id = tr.begin(0, -1, "hcbench", "hcbench.pool_build", false)
	_, err = hcbench.BuildPool(files, hcbench.DefaultChunkSize, comp.Snappy, comp.Snappy.DefaultLevel())
	tr.end(id, n)
	if err != nil {
		return err
	}
	r.set("hcbench.pool_build_s", tr.dur(id).Seconds())

	var generate time.Duration
	call := 0
	for _, slot := range slots {
		id := tr.begin(0, -1, "hcbench", "hcbench.generate", false)
		suite, err := hcbench.GenerateFromCorpus(hcbench.Spec{
			Algo: slot.algo, Op: slot.op, N: cfg.SuiteFiles, MaxFileBytes: cfg.MaxFileBytes, Seed: cfg.Seed,
		}, files)
		if err != nil {
			return err
		}
		tr.end(id, suite.TotalUncompressedBytes())
		generate += tr.dur(id)

		// The figure's 64K near-core corner, file by file.
		devCfg := core.Config{Algo: slot.algo, Op: slot.op, HistorySRAM: 64 << 10, HashTableEntries: 1 << 14}
		dev, err := core.NewDevice(devCfg, 1)
		if err != nil {
			return err
		}
		for _, f := range suite.Files {
			callID := tr.begin(0, call, "", "call", false)
			input := f.Data
			if slot.op == comp.Decompress {
				id := tr.begin(callID, call, "comp", "comp.compress", false)
				input, err = comp.CompressCall(f.Algo, f.Level, f.WindowLog, f.Data)
				tr.end(id, len(f.Data))
				if err != nil {
					return err
				}
				k.encodeChildren(id, call, slot.algo, false, f.Data)
			}
			id := tr.begin(callID, call, "core", "core.exec", false)
			_, err := dev.Exec(input)
			tr.end(id, len(f.Data))
			if err != nil {
				return err
			}
			if slot.op == comp.Compress {
				k.encodeChildren(id, call, slot.algo, true, f.Data)
			} else {
				r.check(k.decodeChildren(id, call, slot.algo, input), "%s: replayed decode failed", f.Name)
			}
			tr.end(callID, len(f.Data))
			call++
		}
	}
	r.set("hcbench.generate_s", generate.Seconds())

	wall := time.Since(start)
	layerMetrics(r, k)
	passSpeed := (speedBefore + r.hostSpeed(1)) / 2
	if r.row.CPUs >= 2 && r.w >= 2 {
		r.set("exp.parallel_speedup", coldScaled.Seconds()*passSpeed/res.seconds())
	}
	r.set("bench.trace_overhead_frac", wall.Seconds()*passSpeed/res.seconds()-1)
	return nil
}

// shadowCodec is the traced pass of codec-sw: every buffer through the public
// one-shot calls with their inner layers replayed below, and the one-shot
// path against a reused comp.Coder on the 4 KiB buffers. comp and dec are the
// untraced passes.
func shadowCodec(r *run, bufs []codecBuf, compReps, decReps reps) error {
	tr := r.tr
	k, err := newKit(tr)
	if err != nil {
		return err
	}
	cacheBefore := zstdlite.DecodeTableCacheStats()
	speedBefore := r.hostSpeed(1)
	start := time.Now()
	call := 0
	for _, algo := range codecAlgos {
		for _, b := range bufs {
			callID := tr.begin(0, call, "", "call", false)
			id := tr.begin(callID, call, "comp", "comp.compress", false)
			frame, err := cdpu.Compress(algo, 0, 0, b.data)
			tr.end(id, len(b.data))
			if err != nil {
				return err
			}
			k.encodeChildren(id, call, algo, false, b.data)

			id = tr.begin(callID, call, "comp", "comp.decompress", false)
			out, err := cdpu.Decompress(algo, frame)
			tr.end(id, len(out))
			if err != nil {
				return err
			}
			r.check(k.decodeChildren(id, call, algo, frame), "%v %v %d: replayed decode failed", algo, b.kind, len(b.data))
			tr.end(callID, len(b.data))
			call++
		}
	}
	wall := time.Since(start)
	passSpeed := (speedBefore + r.hostSpeed(1)) / 2

	// One-shot against a reused Coder, where set-up per call weighs most.
	coder := comp.NewCoder()
	var dst []byte
	var oneshot, reused time.Duration
	for rep := 0; rep < 50; rep++ {
		for _, algo := range codecAlgos {
			for _, b := range bufs {
				if len(b.data) != 4<<10 {
					continue
				}
				id := tr.begin(0, -1, "comp", "comp.oneshot", false)
				_, err := comp.CompressCall(algo, 0, 0, b.data)
				tr.end(id, len(b.data))
				if err != nil {
					return err
				}
				oneshot += tr.dur(id)
				id = tr.begin(0, -1, "comp", "comp.coder", false)
				dst, err = coder.AppendCompress(dst[:0], algo, 0, 0, b.data)
				tr.end(id, len(b.data))
				if err != nil {
					return err
				}
				reused += tr.dur(id)
			}
		}
	}
	r.set("comp.oneshot_overhead_frac", 1-reused.Seconds()/oneshot.Seconds())

	layerMetrics(r, k)
	cache := zstdlite.DecodeTableCacheStats()
	if n := cache.Hits + cache.Misses - cacheBefore.Hits - cacheBefore.Misses; n > 0 {
		r.set("zstdlite.table_cache_hit_frac", float64(cache.Hits-cacheBefore.Hits)/float64(n))
	}
	r.set("bench.trace_overhead_frac", wall.Seconds()*passSpeed/(compReps.seconds()+decReps.seconds())-1)
	return nil
}
