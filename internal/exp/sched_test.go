package exp

import (
	"errors"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
)

// renderAll runs the given experiments at QuickConfig and concatenates every
// table's rendered form.
func renderAll(t *testing.T, ids ...string) string {
	t.Helper()
	var sb strings.Builder
	for _, id := range ids {
		for _, tab := range run(t, id) {
			sb.WriteString(tab.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

// TestConfigRunMemoization asserts that re-running a sweep simulates nothing
// new, and that dse-summary's corner cells are served from the fig11/fig14
// grids.
func TestConfigRunMemoization(t *testing.T) {
	SetWorkers(4)
	t.Cleanup(func() { SetWorkers(0) })

	run(t, "fig11")
	s1 := RunCacheStats()
	if s1.Misses == 0 {
		t.Fatal("fig11 simulated nothing")
	}
	run(t, "fig11")
	s2 := RunCacheStats()
	if extra := s2.Misses - s1.Misses; extra != 0 {
		t.Errorf("second fig11 run simulated %d configs; want 0 (all memoized)", extra)
	}
	if s2.Hits <= s1.Hits {
		t.Errorf("second fig11 run recorded no cache hits")
	}

	run(t, "fig14")
	s3 := RunCacheStats()
	run(t, "dse-summary")
	s4 := RunCacheStats()
	// dse-summary's snappy/zstd decompression RoCC and PCIe 64K cells are
	// fig11/fig14 grid corners; at least those four must be hits.
	if hits := s4.Hits - s3.Hits; hits < 4 {
		t.Errorf("dse-summary reused only %d fig11/fig14 cells; want >= 4", hits)
	}
}

// TestConcurrentExperiments exercises the suite caches and run memo under
// concurrent experiment execution (run with -race in CI).
func TestConcurrentExperiments(t *testing.T) {
	SetWorkers(4)
	t.Cleanup(func() { SetWorkers(0) })
	ids := []string{"fig11", "fig14", "dse-summary", "ablation-hash"}
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			e, err := ByID(id)
			if err == nil {
				_, err = e.Run(QuickConfig())
			}
			errs[i] = err
		}(i, id)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("%s: %v", ids[i], err)
		}
	}
}

func TestParallelFilesFirstErrorPropagation(t *testing.T) {
	s := newScheduler(4)
	boom := errors.New("boom")
	err := s.parallelFiles(64, func(_, i int) error {
		if i == 3 || i == 7 {
			return boom
		}
		return nil
	})
	if err == nil {
		t.Fatal("no error propagated")
	}
	if !errors.Is(err, boom) {
		t.Errorf("error %v does not wrap the task error", err)
	}
	// Index 3 is always submitted before any failure is observed, so the
	// lowest-index error is deterministic.
	if !strings.Contains(err.Error(), "file 3") {
		t.Errorf("error %q does not name the lowest failing index", err)
	}
}

// TestFaultedRunFailsWithConfigAndFileContext drives the fault-sweep run
// path with an injector that returns device error responses: the first
// failing (config x file) task must fail the row with both the config key
// and the file index attached, unwrap to memsys.ErrDeviceFault, and leave no
// goroutines behind (run with -race in CI).
func TestFaultedRunFailsWithConfigAndFileContext(t *testing.T) {
	SetWorkers(4)
	t.Cleanup(func() { SetWorkers(0) })
	w, err := getWorkload(QuickConfig(), comp.Snappy, comp.Decompress)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Algo: comp.Snappy}
	before := runtime.NumGoroutine()
	_, err = current().timeSuite(w, cfg, fault.Plan{ErrorEvery: 1})
	if err == nil {
		t.Fatal("injected device fault did not fail the run")
	}
	if !errors.Is(err, memsys.ErrDeviceFault) {
		t.Errorf("error %v does not unwrap to memsys.ErrDeviceFault", err)
	}
	var derr *core.DeviceError
	if !errors.As(err, &derr) || derr.Reason != "memory-fault" {
		t.Errorf("error %v does not carry a memory-fault DeviceError", err)
	}
	if !strings.Contains(err.Error(), "config "+cfg.Key()) {
		t.Errorf("error %q does not name the config key", err)
	}
	// Tasks already in flight may be skipped once a failure is observed, so
	// any failing index may win — but the row context must be present.
	if !regexp.MustCompile(`file \d+:`).MatchString(err.Error()) {
		t.Errorf("error %q does not name the failing file", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestSetWorkersClampsAndResets(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	SetWorkers(3)
	if Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", Workers())
	}
	if s := RunCacheStats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("SetWorkers did not reset memo stats: %+v", s)
	}
	SetWorkers(-5)
	if Workers() < 1 {
		t.Errorf("Workers() = %d after SetWorkers(-5)", Workers())
	}
}
