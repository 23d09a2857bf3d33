package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// metricDef names a metric and its unit.
type metricDef struct{ Name, Unit string }

// endToEnd is BENCHMARK.json's end_to_end list: the metrics every workload
// defines, so every untraced run reports every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"allocs_per_op", "count"},
}

// workloadMetrics are end-to-end metrics BENCHMARK.json cannot gate. The
// driver wants every end-to-end metric from every workload, none that is ever
// 0, and each steady from seed to seed; these are defined on one workload
// only, or always 0, or (peak_sys_mb) move with the volume a seed happens to
// draw. BENCHMARK.json lists them under per_layer instead; the rows and
// -compare treat them as end-to-end, with the bounds in workloadGates.
var workloadMetrics = []metricDef{
	{"peak_sys_mb", "MB"},
	{"compress_mbps", "MB/s"},
	{"decompress_mbps", "MB/s"},
	{"ratio", "x"},
	{"paper_err_pct", "%"},
	{"failed_frac", "frac"},
}

// layers are the packages that get the generic four per-layer metrics.
var layers = []string{
	"fleet", "traffic", "corpus", "lz77", "huffman", "fse", "bits", "snappy",
	"zstdlite", "comp", "core", "cluster", "des", "stats", "hcbench", "exp",
}

// layerExtras are the layer-specific metrics.
var layerExtras = []metricDef{
	{"fleet.sample_ns_per_call", "ns"},
	{"traffic.gen_ns_per_arrival", "ns"},
	{"traffic.burn_ns_per_observe", "ns"},
	{"corpus.gen_mbps", "MB/s"},
	{"corpus.gen_ns_per_call_4k", "ns"},
	{"lz77.parse_mbps", "MB/s"},
	{"lz77.reconstruct_mbps", "MB/s"},
	{"lz77.false_probe_frac", "frac"},
	{"lz77.match_byte_frac", "frac"},
	{"huffman.build_ns_per_table", "ns"},
	{"huffman.encode_mbps", "MB/s"},
	{"huffman.decode_mbps", "MB/s"},
	{"fse.encode_msym_per_s", "Msym/s"},
	{"fse.decode_msym_per_s", "Msym/s"},
	{"bits.reader_mbps", "MB/s"},
	{"bits.writer_mbps", "MB/s"},
	{"snappy.encode_mbps", "MB/s"},
	{"snappy.decode_mbps", "MB/s"},
	{"zstdlite.encode_mbps", "MB/s"},
	{"zstdlite.size_only_encode_mbps", "MB/s"},
	{"zstdlite.decode_mbps", "MB/s"},
	{"zstdlite.table_cache_hit_frac", "frac"},
	{"comp.oneshot_overhead_frac", "frac"},
	{"core.exec_ns_per_call", "ns"},
	{"core.model_overhead_frac", "frac"},
	{"core.replay_ns_per_job", "ns"},
	{"cluster.step_ns_per_call", "ns"},
	{"cluster.hedge_win_frac", "frac"},
	{"cluster.failover_frac", "frac"},
	{"des.queue_ns_per_event", "ns"},
	{"des.engine_events_per_s", "1/s"},
	{"stats.p99_ns_per_sample", "ns"},
	{"hcbench.pool_build_s", "s"},
	{"hcbench.generate_s", "s"},
	{"exp.config_runs_per_s", "1/s"},
	{"exp.warm_pass_s", "s"},
	{"exp.memo_hit_frac", "frac"},
	{"exp.parallel_speedup", "x"},
	{"sim.ns_per_call_w1", "ns"},
	{"sim.parallel_speedup", "x"},
	{"sim.unattributed_frac", "frac"},
	{"sim.trace_overhead_frac", "frac"},
	{"sim.p99_us", "us"},
	{"sim.mean_latency_us", "us"},
	{"sim.shed_frac", "frac"},
	{"sim.gold_violation_frac", "frac"},
	{"sim.degraded_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.host_speed", "x"},
}

// perLayer is BENCHMARK.json's per_layer list.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs,
			metricDef{l + ".ops", "count"}, metricDef{l + ".bytes", "bytes"},
			metricDef{l + ".busy_s", "s"}, metricDef{l + ".busy_frac", "frac"})
	}
	defs = append(defs, layerExtras...)
	return append(defs, workloadMetrics...)
}

// units maps every metric of the tables above to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(perLayer(), endToEnd...) {
		m[d.Name] = d.Unit
	}
	return m
}()

// unitOf looks a metric's unit up; a metric in no table is a bug in the
// harness.
func unitOf(name string) string {
	u, ok := units[name]
	if !ok {
		panic("bench: metric " + name + " is in no table")
	}
	return u
}

// metric is one measured value. Value is what the row reports: the single
// measurement, or for a metric measured once per rep the median rep (for
// allocs_per_op the rep that allocated least), with the per-rep Samples and
// their quartiles beside it.
type metric struct {
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples,omitempty"`
}

// host is the shape of the machine and build a row was measured on.
type host struct {
	Commit         string `json:"commit"`
	GoVersion      string `json:"go_version"`
	GOOS           string `json:"goos"`
	GOARCH         string `json:"goarch"`
	CPUs           int    `json:"cpus"` // schedulable
	GOMAXPROCS     int    `json:"gomaxprocs"`
	Workers        int    `json:"workers"`
	WorkersClamped bool   `json:"workers_clamped"` // GOMAXPROCS asked for more than the CPUs can run
	GOGC           string `json:"gogc"`
}

// row is what one workload run produces.
type row struct {
	Workload string `json:"workload"`
	Traced   bool   `json:"traced"`
	Seed     int64  `json:"seed"`
	host
	Reps        int               `json:"reps"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	Fingerprint string            `json:"sim_fingerprint"`
	Metrics     map[string]metric `json:"metrics"`
}

func (r *row) metricNames() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run is the state of one workload run.
type run struct {
	opt  options
	row  row
	w    int     // the one worker count end-to-end reps use
	tr   *tracer // nil unless traced
	hash []string
}

func newRun(o options) *run {
	cpus := runtime.NumCPU()
	procs := runtime.GOMAXPROCS(0)
	r := &run{opt: o, w: min(4, procs, cpus)}
	r.row = row{
		Workload: o.workload, Traced: o.trace, Seed: o.seed,
		host: host{
			Commit: commit(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			CPUs: cpus, GOMAXPROCS: procs, Workers: r.w, WorkersClamped: min(4, procs) > cpus,
			GOGC: os.Getenv("GOGC"),
		},
		Metrics: map[string]metric{},
	}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// commit is the checked-out revision, "-dirty" when the tree has changes, or
// "unknown" outside a git checkout.
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	rev := strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil && len(st) > 0 {
		rev += "-dirty"
	}
	return rev
}

// check counts one correctness check and reports a failed one on stderr.
func (r *run) check(ok bool, format string, args ...any) {
	r.row.Attempted++
	if !ok {
		r.row.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", r.opt.workload, fmt.Sprintf(format, args...))
	}
}

// fingerprint adds one simulated output to the run's sim_fingerprint.
func (r *run) fingerprint(s string) { r.hash = append(r.hash, s) }

// set records a metric measured once.
func (r *run) set(name string, v float64) {
	r.row.Metrics[name] = metric{Unit: unitOf(name), Value: v, Median: v, Q1: v, Q3: v}
}

// setSamples records a metric measured once per rep: value is what the row
// reports, samples give the median and quartiles beside it.
func (r *run) setSamples(name string, value float64, samples []float64) {
	m := metric{Unit: unitOf(name), Value: value, Samples: samples}
	m.Q1, m.Median, m.Q3 = quartiles(samples)
	r.row.Metrics[name] = m
}

// finish closes the row: memory, failed_frac, fingerprint.
func (r *run) finish() *row {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.set("peak_sys_mb", float64(ms.Sys)/1e6)
	r.set("failed_frac", float64(r.row.Failed)/float64(max(1, r.row.Attempted)))
	r.row.Fingerprint = fmt.Sprintf("%x", sha256.Sum256([]byte(strings.Join(r.hash, "\n"))))
	return &r.row
}

// quartiles returns the first quartile, median and third quartile of xs by
// the method Python's statistics.quantiles(xs, n=4) uses (exclusive), so the
// numbers agree with the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}
