package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"time"

	"cdpu"
	"cdpu/internal/cluster"
	"cdpu/internal/corpus"
	"cdpu/internal/des"
	"cdpu/internal/exp"
	"cdpu/internal/fault"
	"cdpu/internal/resil"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

var workloadNames = []string{"replay-healthy", "replay-overload", "dse-sweep", "codec-sw"}

var workloads = map[string]func(*run) error{
	"replay-healthy":  replayHealthy,
	"replay-overload": replayOverload,
	"dse-sweep":       dseSweep,
	"codec-sw":        codecSW,
}

// minReps is the fewest timed reps a workload reports on.
const minReps = 5

// budget is the timed share of a run. A traced run spends most of its time
// in the shadow pass and keeps only a short untraced measurement to compare
// it with.
func (r *run) budget() time.Duration {
	s := r.opt.seconds
	if r.opt.trace {
		s /= 4
	}
	return time.Duration(s * float64(time.Second))
}

func (r *run) minReps() int {
	if r.opt.smoke || r.opt.trace {
		return 2
	}
	return minReps
}

// healthyConfig is replay-healthy: the default closed-loop replay, where
// payload synthesis, the parse and entropy coding do nearly all the work.
func healthyConfig(r *run) sim.Config {
	cfg := sim.Config{Seed: r.opt.seed, Calls: 12000}
	if r.opt.smoke {
		cfg.Calls = 600
		cfg.MaxCallBytes = 64 << 10
	}
	return cfg
}

// overloadConfig is replay-overload: tiny calls across 128 partitions with
// the whole control plane on, so fixed per-call cost dominates. Resilience
// and Failover are the reference policies of cmd/simbench (benchPolicy and
// benchFailoverPolicy) with a tighter queue and deadline admission.
func overloadConfig(r *run) sim.Config {
	seed := r.opt.seed
	cfg := sim.Config{
		Seed: seed, Calls: 40000, MaxCallBytes: 4 << 10,
		Pipelines: 2, Devices: 32, Replicas: 3,
		Traffic: traffic.Pattern{
			CallsPerMcycle: 3000, FlashFactor: 20,
			FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: .05,
		},
		Tenants: traffic.Tenants{N: 64, ZipfS: 1.1},
		SLO:     traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}},
		Resilience: resil.Policy{
			MaxAttempts: 3, BackoffBaseCycles: 2000, BackoffMaxCycles: 64000, JitterFrac: 0.5,
			SoftwareFallback: true,
			QuarantineK:      3, QuarantineWindowCycles: 2e6, QuarantinePenaltyCycles: 1e5,
			MaxQueue: 32, DeadlineFactor: 2,
		},
		Storm:     &fault.Storm{Seed: seed + 1000, Rate: .02, MeanRepeats: 1},
		Lifecycle: &fault.Lifecycle{Seed: seed + 2000, Rate: .02, EpochCalls: 64, MeanEventCalls: 24},
		Failover: cluster.FailoverPolicy{
			MaxFailovers: 3, FailoverPenaltyCycles: 2000,
			BreakerFailures: 3, BreakerWindow: 32, BreakerErrorRate: 0.5,
			BreakerOpenCycles: 2e5, BreakerHalfOpenProbes: 2,
			Hedge: true, HedgeDelayCycles: 120000,
			CrashDetectCycles: 4000, RestartCycles: 50000,
		},
		Burn:       traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6},
		Autoscale:  traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5},
		Contention: &des.Shared{StreamBytesPerCycle: 64, LinkOpsPerCycle: 1, LLCBytes: 32 << 20},
	}
	if r.opt.smoke {
		cfg.Calls = 2000
		cfg.Devices = 4
	}
	return cfg
}

// nominalHealthyBytes is what replay-healthy's 12000 calls sum to on average
// (seeds 1 to 10). The 1 MiB cap leaves the call sizes heavy-tailed, so a
// seed's total is up to 6 % off this, and a payload-bound replay's time
// follows it; rep times are scaled to the nominal total, as dseSweep scales
// its figures. replay-overload's 4 KiB cap holds its total to ±0.5 %, and its
// time goes with calls, not bytes: it is not scaled.
const nominalHealthyBytes = 138.5e6

func replayHealthy(r *run) error {
	if r.opt.smoke {
		return replay(r, healthyConfig(r), 0)
	}
	return replay(r, healthyConfig(r), nominalHealthyBytes)
}

func replayOverload(r *run) error { return replay(r, overloadConfig(r), 0) }

// replay measures sim.Run on cfg. Set-up is the first, cold, replay; it runs
// at one worker, so its Report is also the reference every timed rep at W
// workers must equal. One op is one replayed call; with nominalBytes set, rep
// times are scaled to that many replayed bytes.
func replay(r *run, cfg sim.Config, nominalBytes float64) error {
	cfg.Workers = 1
	var ref *sim.Report
	setup, err := r.timeSetup(1, func() (err error) { ref, err = sim.Run(cfg); return })
	r.check(err == nil, "sim.Run at 1 worker: %v", err)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	r.fingerprint(fmt.Sprintf("%+v", *ref))

	scale := 1.0
	if nominalBytes > 0 {
		scale = nominalBytes / float64(ref.UncompressedBytes)
	}
	cfg.Workers = r.w
	same := true
	res, err := r.timeReps(r.w, r.minReps(), r.budget(), func(int) (time.Duration, error) {
		var rep *sim.Report
		d, err := since(func() (err error) { rep, err = sim.Run(cfg); return })
		if err == nil && *rep != *ref {
			same = false
		}
		return time.Duration(float64(d) * scale), err
	})
	r.check(err == nil, "sim.Run at %d workers: %v", r.w, err)
	if err != nil {
		return err
	}
	r.check(same, "Report at %d workers differs from the Report at 1", r.w)
	r.reportOps(float64(ref.Calls), res)
	r.setAllocs(float64(ref.Calls), res.mallocs)

	if r.tr != nil {
		return shadowReplay(r, cfg, ref, scale, res)
	}
	return nil
}

// reportOps records ops_per_s for reps of ops operations, and the host speed
// they were corrected by.
func (r *run) reportOps(ops float64, res reps) {
	r.row.Reps = len(res.times)
	r.setSamples("ops_per_s", ops/res.seconds(), res.perSecond(ops))
	r.set("bench.host_speed", res.speed)
}

// setAllocs records allocs_per_op from the heap objects each rep allocated.
// Like a time, the count has a floor — what the work itself allocates — and
// one-sided noise on top: sync.Pools refilling after a collection, a map
// growing. The value reported is the rep that allocated least.
func (r *run) setAllocs(ops float64, perRep []float64) {
	samples := make([]float64, len(perRep))
	for i, m := range perRep {
		samples[i] = m / ops
	}
	r.setSamples("allocs_per_op", slices.Min(samples), samples)
}

// dseFigures are the four design-space sweeps of the paper's Section 6, two
// decompression (fig11, fig14: no parser) and two compression. Building a
// figure's suite takes seconds whatever its size, so -smoke keeps two.
func dseFigures(smoke bool) []string {
	if smoke {
		return []string{"fig11", "fig12"}
	}
	return []string{"fig11", "fig12", "fig14", "fig15"}
}

// paperCells are the cells of those figures the paper states a number for.
var paperCells = []struct {
	fig, row, col string
	want          float64
}{
	{"fig11", "64K", "RoCC", 10.4},
	{"fig12", "64K", "RoCC", 16.2},
	{"fig14", "64K", "RoCC", 4.2},
	{"fig15", "64K", "RoCC", 15.8},
	{"fig11", "64K", "Chiplet", 9.5},
	{"fig11", "64K", "area-mm2", 0.431},
	{"fig15", "64K", "area-mm2", 3.48},
}

func dseConfig(r *run) exp.Config {
	cfg := exp.Config{SuiteFiles: 200, MaxFileBytes: 1 << 20, Seed: r.opt.seed}
	if r.opt.smoke {
		cfg.SuiteFiles = 20
		cfg.MaxFileBytes = 256 << 10
	}
	return cfg
}

// dseOut is one pass over the figures.
type dseOut struct {
	tables map[string][]*exp.Table
	parts  []time.Duration // per figure
	runs   []int64         // per figure, configuration runs simulated
}

// dsePass regenerates the figures at the given worker count with a cold run
// memo (SetWorkers drops it; the suite caches survive).
func dsePass(figs []string, cfg exp.Config, workers int) (dseOut, error) {
	exp.SetWorkers(workers)
	out := dseOut{tables: map[string][]*exp.Table{}}
	for _, id := range figs {
		e, err := exp.ByID(id)
		if err != nil {
			return out, err
		}
		before := exp.RunCacheStats().Misses
		var ts []*exp.Table
		d, err := since(func() (err error) { ts, err = e.Run(cfg); return })
		if err != nil {
			return out, fmt.Errorf("%s: %w", id, err)
		}
		if len(ts) == 0 {
			return out, fmt.Errorf("%s: no table", id)
		}
		out.tables[id] = ts
		out.parts = append(out.parts, d)
		out.runs = append(out.runs, exp.RunCacheStats().Misses-before)
	}
	return out, nil
}

// suiteMB reads a sweep table's suite size, in MB, out of its note. The
// suites themselves are private to exp; their size is the one thing about
// them a figure prints.
var suiteMBNote = regexp.MustCompile(`files, ([0-9.]+) MB`)

func suiteMB(t *exp.Table) (float64, bool) {
	m := suiteMBNote.FindStringSubmatch(t.Note)
	if m == nil {
		return 0, false
	}
	v, err := strconv.ParseFloat(m[1], 64)
	return v, err == nil && v > 0
}

func renderTables(figs []string, tables map[string][]*exp.Table) string {
	var b strings.Builder
	for _, id := range figs {
		for _, t := range tables[id] {
			b.WriteString(t.String())
		}
	}
	return b.String()
}

// cell reads one cell of a table by row label (first column) and column name,
// dropping a trailing "x".
func cell(t *exp.Table, row, col string) (float64, bool) {
	for ci, c := range t.Columns {
		if c != col {
			continue
		}
		for _, cells := range t.Rows {
			if len(cells) > ci && cells[0] == row {
				v, err := strconv.ParseFloat(strings.TrimSuffix(cells[ci], "x"), 64)
				return v, err == nil
			}
		}
	}
	return 0, false
}

// nominalSuiteMB is the size each figure's suite has on average (seeds 1 to
// 10 at the sizes of dseConfig). File sizes are heavy-tailed, so the suite a
// seed draws is up to a third smaller or larger than this, and a figure's time
// follows its suite's size closely (compression sweeps to ±6 %). Timing every
// figure as if its suite had the nominal size takes the seed's luck out of
// ops_per_s.
var nominalSuiteMB = map[string]float64{"fig11": 1.8, "fig12": 3.0, "fig14": 5.0, "fig15": 6.6}

// dseSweep measures the paper's own experiment: the core timing model under
// every configuration of the four sweeps, through the exp scheduler. Set-up
// is the first pass, which builds the benchmark suites; it runs at one
// worker, so its tables are the reference for the timed passes at W. One op
// is one simulated configuration run, its figure's time scaled to the nominal
// suite size.
func dseSweep(r *run) error {
	cfg := dseConfig(r)
	figs := dseFigures(r.opt.smoke)
	var ref dseOut
	setup, err := r.timeSetup(1, func() (err error) { ref, err = dsePass(figs, cfg, 1); return })
	r.check(err == nil, "first DSE pass: %v", err)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)
	want := renderTables(figs, ref.tables)
	r.fingerprint(want)

	var runs float64
	scale := make([]float64, len(figs)) // nominal over actual suite size
	for i, fig := range figs {
		mb, ok := suiteMB(ref.tables[fig][0]) // the sweep is each figure's first table
		r.check(ok, "%s: no suite size in the note %q", fig, ref.tables[fig][0].Note)
		scale[i] = 1
		if ok && !r.opt.smoke {
			scale[i] = nominalSuiteMB[fig] / mb
		}
		runs += float64(ref.runs[i])
	}
	var errSum float64
	cells := 0
	for _, pc := range paperCells {
		if ref.tables[pc.fig] == nil {
			continue
		}
		cells++
		got, ok := cell(ref.tables[pc.fig][0], pc.row, pc.col)
		r.check(ok, "%s has no cell (%s, %s)", pc.fig, pc.row, pc.col)
		errSum += math.Abs(got-pc.want) / pc.want
	}
	r.set("paper_err_pct", 100*errSum/float64(cells))

	same := true
	res, err := r.timeReps(r.w, r.minReps(), r.budget(), func(int) (time.Duration, error) {
		out, err := dsePass(figs, cfg, r.w)
		if err == nil && renderTables(figs, out.tables) != want {
			same = false
		}
		var scaled float64
		for i, d := range out.parts {
			scaled += float64(d) * scale[i]
		}
		return time.Duration(scaled), err
	})
	r.check(err == nil, "DSE pass at %d workers: %v", r.w, err)
	if err != nil {
		return err
	}
	r.check(same, "tables at %d workers differ from the tables at 1", r.w)
	r.reportOps(runs, res)
	r.setAllocs(runs, res.mallocs)

	if r.tr != nil {
		return shadowDSE(r, figs, cfg, scale, res)
	}
	return nil
}

// codecBuf is one codec-sw input.
type codecBuf struct {
	kind corpus.Kind
	data []byte
}

var codecKinds = []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Table, corpus.HTML}

var codecAlgos = []cdpu.Algorithm{cdpu.Snappy, cdpu.ZStd}

func codecSizes(r *run) []int {
	if r.opt.smoke {
		return []int{4 << 10, 64 << 10}
	}
	return []int{4 << 10, 64 << 10, 1 << 20}
}

func codecBufs(r *run) []codecBuf {
	var bufs []codecBuf
	for _, k := range codecKinds {
		for _, n := range codecSizes(r) {
			bufs = append(bufs, codecBuf{k, corpus.Generate(k, n, r.opt.seed*1000+int64(len(bufs)))})
		}
	}
	return bufs
}

// setupReps is how often codec-sw generates its buffers: set-up takes 40 ms,
// and a median over fewer is at the mercy of one slow page fault.
const setupReps = 15

// corruptFrame, when set, damages a compressed frame before it is decoded.
// Only the test that proves the round-trip check is live sets it.
var corruptFrame func(frame []byte)

// codecSW measures the software codecs alone, single-threaded: every buffer
// through cdpu.Compress and cdpu.Decompress for Snappy and for ZStd level 3,
// the two directions timed apart. Set-up generates the buffers (setupReps
// times; the median is reported). One op is one codec call.
func codecSW(r *run) error {
	var bufs []codecBuf
	setups := make([]float64, setupReps)
	before := r.hostSpeed(1)
	for i := range setups {
		d, _ := since(func() error { bufs = codecBufs(r); return nil })
		setups[i] = d.Seconds()
	}
	speed := (before + r.hostSpeed(1)) / 2
	for i := range setups {
		setups[i] *= speed
	}
	_, med, _ := quartiles(setups)
	r.setSamples("setup_s", med, setups)

	// One compression of everything up front gives the frames to decode, the
	// ratio and the fingerprint.
	type job struct {
		algo  cdpu.Algorithm
		plain []byte
		frame []byte
	}
	var jobs []job
	var plainBytes, frameBytes int
	for _, algo := range codecAlgos {
		for _, b := range bufs {
			frame, err := cdpu.Compress(algo, 0, 0, b.data)
			r.check(err == nil, "compress %v %v %d: %v", algo, b.kind, len(b.data), err)
			if err != nil {
				return err
			}
			if corruptFrame != nil {
				corruptFrame(frame)
			}
			jobs = append(jobs, job{algo, b.data, frame})
			plainBytes += len(b.data)
			frameBytes += len(frame)
			r.fingerprint(fmt.Sprintf("%v %v %d %d", algo, b.kind, len(b.data), len(frame)))
		}
	}
	r.set("ratio", float64(plainBytes)/float64(frameBytes))

	// Each direction gets half the budget; a rep is one pass over every job.
	half := r.budget() / 2
	comp, err := r.timeReps(1, r.minReps(), half, func(int) (time.Duration, error) {
		return since(func() error {
			for _, j := range jobs {
				if _, err := cdpu.Compress(j.algo, 0, 0, j.plain); err != nil {
					return err
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	roundTrips := true
	dec, err := r.timeReps(1, r.minReps(), half, func(int) (time.Duration, error) {
		return since(func() error {
			for _, j := range jobs {
				if out, err := cdpu.Decompress(j.algo, j.frame); err != nil || !bytes.Equal(out, j.plain) {
					roundTrips = false
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	r.check(roundTrips, "a decompressed buffer differs from its source")

	mb := float64(plainBytes) / 1e6
	r.setSamples("compress_mbps", mb/comp.seconds(), comp.perSecond(mb))
	r.setSamples("decompress_mbps", mb/dec.seconds(), dec.perSecond(mb))
	// ops_per_s is the geometric mean of the two directions' call rates, so a
	// given relative slowdown of either direction moves it by the same share.
	calls := float64(len(jobs))
	r.row.Reps = len(comp.times) + len(dec.times)
	r.set("ops_per_s", calls/math.Sqrt(comp.seconds()*dec.seconds()))
	r.set("bench.host_speed", math.Sqrt(comp.speed*dec.speed))
	r.setAllocs(calls, append(comp.mallocs, dec.mallocs...))

	if r.tr != nil {
		return shadowCodec(r, bufs, comp, dec)
	}
	return nil
}
