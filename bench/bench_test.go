package main

import (
	"bytes"
	"math"
	"regexp"
	"strings"
	"testing"
)

// smokeRun runs one workload at -smoke sizes in this process.
func smokeRun(t *testing.T, workload string, seed int64, traced bool) *run {
	t.Helper()
	r := newRun(options{workload: workload, seed: seed, seconds: 0.2, trace: traced, smoke: true})
	if err := workloads[workload](r); err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	r.finish()
	return r
}

// TestTablesMatchBenchmarkJSON pins the harness's metric tables to
// BENCHMARK.json: same names, same units, same order.
func TestTablesMatchBenchmarkJSON(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloadNames, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, harness has %v", names, workloadNames)
	}
	same := func(kind string, got []specMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness has %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), harness has %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer())

	syntax := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	for _, d := range append(perLayer(), endToEnd...) {
		if !syntax.MatchString(d.Name) {
			t.Errorf("metric name %q breaks the name syntax", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %s is listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// definedOn lists, per workload, the layers its traced run must report.
var definedOn = map[string][]string{
	"replay-healthy":  {"fleet", "corpus", "lz77", "huffman", "fse", "bits", "snappy", "zstdlite", "comp", "core", "stats"},
	"replay-overload": {"fleet", "traffic", "corpus", "lz77", "huffman", "fse", "bits", "snappy", "zstdlite", "comp", "core", "cluster", "des", "stats"},
	"dse-sweep":       {"corpus", "lz77", "huffman", "fse", "bits", "snappy", "zstdlite", "comp", "core", "hcbench", "exp"},
	"codec-sw":        {"lz77", "huffman", "fse", "bits", "snappy", "zstdlite", "comp"},
}

// TestWorkloads runs every workload untraced and traced at -smoke sizes, on
// two seeds, and checks what each run reports.
func TestWorkloads(t *testing.T) {
	known := map[string]bool{}
	for _, d := range append(perLayer(), endToEnd...) {
		known[d.Name] = true
	}
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			plain := smokeRun(t, name, 1, false)
			for _, d := range endToEnd {
				m, ok := plain.row.Metrics[d.Name]
				if !ok {
					t.Errorf("untraced run reports no %s", d.Name)
				} else if m.Value <= 0 || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v, want a positive number", d.Name, m.Value)
				}
			}
			if plain.row.Failed != 0 || plain.row.Attempted == 0 {
				t.Errorf("untraced run: %d of %d checks failed", plain.row.Failed, plain.row.Attempted)
			}

			traced := smokeRun(t, name, 2, true)
			if traced.row.Failed != 0 {
				t.Errorf("traced run on seed 2: %d of %d checks failed", traced.row.Failed, traced.row.Attempted)
			}
			if f := traced.row.Metrics["failed_frac"].Value; f != 0 {
				t.Errorf("failed_frac = %v on seed 2", f)
			}
			for n, m := range traced.row.Metrics {
				if !known[n] {
					t.Errorf("traced run reports %s, which BENCHMARK.json does not name", n)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s = %v", n, m.Value)
				}
			}
			var frac float64
			for _, l := range layers {
				frac += traced.row.Metrics[l+".busy_frac"].Value
			}
			if math.Abs(frac-1) > 0.001 {
				t.Errorf("busy_frac sums to %v over the layers, want 1", frac)
			}
			for _, l := range definedOn[name] {
				for _, suffix := range []string{".ops", ".bytes", ".busy_s", ".busy_frac"} {
					if _, ok := traced.row.Metrics[l+suffix]; !ok {
						t.Errorf("traced run reports no %s", l+suffix)
					}
				}
			}
			if _, ok := traced.row.Metrics["bench.trace_overhead_frac"]; !ok {
				t.Error("traced run reports no bench.trace_overhead_frac")
			}
			if strings.HasPrefix(name, "replay-") {
				if _, ok := traced.row.Metrics["sim.unattributed_frac"]; !ok {
					t.Error("traced run reports no sim.unattributed_frac")
				}
			}
			checkSpans(t, traced.tr)

			// Same seed, same simulated outputs.
			if again := smokeRun(t, name, 1, false); again.row.Fingerprint != plain.row.Fingerprint {
				t.Errorf("sim_fingerprint differs between two runs of seed 1: %s, %s", plain.row.Fingerprint, again.row.Fingerprint)
			}
		})
	}
}

// checkSpans checks that the span tree is well formed: ids are positions,
// parents exist and come first, a child that is not a replay lies inside its
// parent and shares its call id, and a replay starts after its parent ended.
func checkSpans(t *testing.T, tr *tracer) {
	t.Helper()
	if len(tr.spans) == 0 {
		t.Fatal("no spans recorded")
	}
	calls := map[int]int{}
	bad := 0
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.ID != i+1 || s.EndNs < s.StartNs {
			t.Fatalf("span %d: id %d, [%d, %d]", i+1, s.ID, s.StartNs, s.EndNs)
		}
		if s.Name == "call" {
			calls[s.Call]++
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Fatalf("span %d (%s): parent %d does not precede it", s.ID, s.Name, s.Parent)
		}
		p := &tr.spans[s.Parent-1]
		switch {
		case p.Call != s.Call:
			t.Errorf("span %d (%s): call %d, its parent's %d", s.ID, s.Name, s.Call, p.Call)
			bad++
		case s.Replayed && s.StartNs < p.EndNs:
			t.Errorf("replayed span %d (%s) starts before its parent %s ended", s.ID, s.Name, p.Name)
			bad++
		case !s.Replayed && (s.StartNs < p.StartNs || s.EndNs > p.EndNs):
			t.Errorf("span %d (%s) lies outside its parent %s", s.ID, s.Name, p.Name)
			bad++
		}
		if bad > 10 {
			t.Fatal("too many malformed spans")
		}
	}
	for call, n := range calls {
		if n != 1 {
			t.Errorf("call id %d is used by %d call spans", call, n)
		}
	}
}

// TestRoundTripCheckIsLive flips one byte of every compressed frame before
// the round-trip compare; failed_frac must notice.
func TestRoundTripCheckIsLive(t *testing.T) {
	corruptFrame = func(frame []byte) { frame[len(frame)/2] ^= 0x40 }
	defer func() { corruptFrame = nil }()
	r := newRun(options{workload: "codec-sw", seed: 1, seconds: 0.1, smoke: true})
	if err := codecSW(r); err != nil {
		t.Fatal(err)
	}
	if f := r.finish().Metrics["failed_frac"].Value; f <= 0 {
		t.Errorf("failed_frac = %v with every frame corrupted", f)
	}
}

// TestDriverResult checks the line the driver reads: exactly the four keys,
// every end-to-end metric untraced, every per-layer metric traced.
func TestDriverResult(t *testing.T) {
	for _, traced := range []bool{false, true} {
		var out bytes.Buffer
		o := options{workload: "codec-sw", seed: 3, seconds: 0.1, trace: traced, smoke: true}
		if err := runOne(&out, o); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		last := lines[len(lines)-1]
		want := endToEnd
		if traced {
			want = perLayer()
		}
		for _, d := range want {
			if !strings.Contains(last, `"`+d.Name+`":{"value":`) {
				t.Errorf("traced=%v: result line has no %s", traced, d.Name)
			}
		}
		if n := strings.Count(last, `"unit":`); n != len(want) {
			t.Errorf("traced=%v: result line has %d metrics, want %d", traced, n, len(want))
		}
		if !strings.HasPrefix(last, `{"correct":true,"attempted":`) {
			t.Errorf("traced=%v: result line starts %.60s", traced, last)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "codec-sw", "--seed", "1", "--seconds", "20", "--trace", "1"})
	if strings.Join(got, " ") != "--workload codec-sw --seed 1 --seconds 20 --trace=1" {
		t.Errorf("got %v", got)
	}
	got = joinTraceValue([]string{"-trace", "-trace-out", "spans.json"})
	if strings.Join(got, " ") != "-trace -trace-out spans.json" {
		t.Errorf("got %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4) == [3.5, 13.5, 31.0]
	q1, med, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v", q1, med, q3)
	}
}

func TestVerdict(t *testing.T) {
	g := gate{name: "ops_per_s", higher: true, bound: 0.1}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		paired bool
		want   string
	}{
		{"same", []float64{100, 101, 99, 100}, []float64{100, 99, 101, 100}, false, "ok"},
		{"slower", []float64{100, 101, 99, 100}, []float64{80, 81, 79, 80}, false, "worse"},
		{"faster", []float64{100, 101, 99, 100}, []float64{130, 131, 129, 130}, false, "ok"},
		{"noisy and overlapping", []float64{100, 140, 70, 110}, []float64{95, 60, 130, 100}, false, "unresolved"},
		{"noisy but every run slower", []float64{100, 140, 90, 110}, []float64{50, 40, 60, 70}, false, "worse"},
		{"the seed moves it, the commit does not", []float64{100, 150, 60, 120}, []float64{101, 149, 60, 121}, true, "ok"},
		{"the seed moves it, the commit slows every seed", []float64{100, 150, 60, 120}, []float64{80, 120, 48, 96}, true, "worse"},
		{"paired and noisy", []float64{100, 150, 60, 120}, []float64{130, 120, 75, 90}, true, "unresolved"},
	} {
		if got, _, _ := verdict(g, tc.a, tc.b, tc.paired); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
