package sim

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"cdpu/internal/memsys"
	"cdpu/internal/obs"
)

func TestRunBasicReport(t *testing.T) {
	r, err := Run(Config{Seed: 1, Calls: 80, MaxCallBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.Calls != 80 || r.UncompressedBytes <= 0 {
		t.Fatalf("call accounting: %+v", r)
	}
	if r.MeanLatencyUs <= 0 || r.P99LatencyUs < r.MeanLatencyUs {
		t.Errorf("latency stats implausible: mean=%f p99=%f", r.MeanLatencyUs, r.P99LatencyUs)
	}
	if r.XeonCoresNeeded <= 0 {
		t.Errorf("baseline cores = %f", r.XeonCoresNeeded)
	}
	if r.AreaMM2 < 1 || r.AreaMM2 > 50 {
		t.Errorf("deployed area = %f mm2", r.AreaMM2)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Config{Seed: 7, Calls: 40, MaxCallBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Seed: 7, Calls: 40, MaxCallBytes: 128 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.MeanLatencyUs != b.MeanLatencyUs || a.XeonCoresNeeded != b.XeonCoresNeeded {
		t.Error("replay not deterministic")
	}
}

func TestHigherLoadRaisesUtilization(t *testing.T) {
	low, err := Run(Config{Seed: 2, Calls: 60, OfferedGBps: 0.5, MaxCallBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	high, err := Run(Config{Seed: 2, Calls: 60, OfferedGBps: 8.0, MaxCallBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	// At 16x the offered load, queueing must show up in caller latency.
	if high.MeanLatencyUs <= low.MeanLatencyUs {
		t.Errorf("latency did not rise with load: %f vs %f us", high.MeanLatencyUs, low.MeanLatencyUs)
	}
}

func TestRemotePlacementRaisesLatency(t *testing.T) {
	near, err := Run(Config{Seed: 3, Calls: 60, MaxCallBytes: 256 << 10, Placement: memsys.RoCC})
	if err != nil {
		t.Fatal(err)
	}
	far, err := Run(Config{Seed: 3, Calls: 60, MaxCallBytes: 256 << 10, Placement: memsys.PCIeNoCache})
	if err != nil {
		t.Fatal(err)
	}
	if far.MeanLatencyUs <= near.MeanLatencyUs {
		t.Errorf("PCIe latency %f not above near-core %f", far.MeanLatencyUs, near.MeanLatencyUs)
	}
}

// TestRunWorkerCountInvariant pins the tentpole property of the sharded
// replay: the Report is byte-identical at any worker count, because every
// per-call draw derives from (seed, call index) and the reduction runs in a
// fixed device order.
func TestRunWorkerCountInvariant(t *testing.T) {
	base := Config{Seed: 11, Calls: 120, MaxCallBytes: 128 << 10, Workers: 1}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0), 16} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestRunLeavesNoGoroutines checks the replay pool drains completely, success
// or not (mirrors the scheduler's leak check in internal/exp/sched_test.go).
func TestRunLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := Run(Config{Seed: 5, Calls: 40, MaxCallBytes: 64 << 10, Workers: 8}); err != nil {
		t.Fatal(err)
	}
	// Workers exit asynchronously after the last result lands; allow a
	// grace period for the scheduler to retire them.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}

func TestOffloadBeatsSoftwareServiceTime(t *testing.T) {
	r, err := Run(Config{Seed: 4, Calls: 80, OfferedGBps: 1.0, MaxCallBytes: 256 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if r.MeanLatencyUs >= r.SoftwareMeanLatencyUs {
		t.Errorf("device latency %f us not below software %f us", r.MeanLatencyUs, r.SoftwareMeanLatencyUs)
	}
}

// BenchmarkSimRun measures one full replay (sampling, parallel synthesis,
// queueing replay). Divide ns/op and allocs/op by the call count for
// per-call figures; `go run ./bench` reports the same replay as ops_per_s and
// allocs_per_op, and this benchmark is the profiling target
// (go test -run '^$' -bench BenchmarkSimRun -cpuprofile cpu.pprof ./internal/sim).
func BenchmarkSimRun(b *testing.B) {
	cfg := Config{Seed: 1, Calls: 2000, MaxCallBytes: 256 << 10}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cfg.Calls)*float64(b.N)/b.Elapsed().Seconds(), "calls/sec")
}

// TestTracedRunLeavesReportIdentical pins the observability guarantee:
// collecting a full span timeline changes no modeled cycles, so the Report is
// byte-identical with tracing on or off, and the trace itself parses as
// Chrome trace-event JSON with spans for every device lane.
func TestTracedRunLeavesReportIdentical(t *testing.T) {
	base := Config{Seed: 13, Calls: 300, MaxCallBytes: 128 << 10, Pipelines: 2}
	calls0 := metricSimCalls.Value()
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	traced := base
	traced.Trace = obs.NewTrace(2.0)
	got, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("tracing changed the report:\n got %+v\nwant %+v", got, want)
	}
	if traced.Trace.Len() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	// The metrics registry saw both replays' traffic.
	if d := metricSimCalls.Value() - calls0; d != int64(2*base.Calls) {
		t.Errorf("sim.calls counter moved by %d over two %d-call replays", d, base.Calls)
	}

	var buf bytes.Buffer
	if err := traced.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := 0
	pids := map[int]bool{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
			spans++
			pids[ev.Pid] = true
			if ev.Ts < 0 || ev.Dur < 0 {
				t.Fatalf("negative span timing: %+v", ev)
			}
			if ev.Tid < 0 || ev.Tid >= base.Pipelines*2 {
				t.Fatalf("span on unknown lane: %+v", ev)
			}
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
	if spans == 0 {
		t.Fatal("no span events in trace JSON")
	}
	// All four devices see traffic at this call count.
	for d := 0; d < numDevices; d++ {
		if !pids[d] {
			t.Errorf("device %d has no spans", d)
		}
	}
}
