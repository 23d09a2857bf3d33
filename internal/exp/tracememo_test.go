package exp

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/memsys"
)

var sweepFigures = []string{"fig11", "fig12", "fig14", "fig15"}

// TestColdSweepTracesEachSuiteOnce pins the functional-once, timing-many
// split: a cold pass over the four sweeps is still 86 config runs, but only 14
// functional passes (2 decompression suites, 6 SRAM sizes x 2 compression
// algorithms); SetWorkers drops both memos, so the next pass is cold again;
// and the tables are byte-identical at 1, 2 and 8 workers.
func TestColdSweepTracesEachSuiteOnce(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	var ref string
	for _, workers := range []int{1, 2, 8} {
		SetWorkers(workers)
		if r, tr := RunCacheStats(), TraceCacheStats(); r != (CacheStats{}) || tr != (CacheStats{}) {
			t.Fatalf("SetWorkers(%d) left memo traffic behind: runs %+v, traces %+v", workers, r, tr)
		}
		got := renderAll(t, sweepFigures...)
		if r := RunCacheStats(); r.Misses != 86 {
			t.Errorf("workers=%d: cold pass simulated %d config runs, want 86", workers, r.Misses)
		}
		if tr := TraceCacheStats(); tr.Misses != 14 || tr.Hits != 86-14 {
			t.Errorf("workers=%d: cold pass traced %d suites and reused %d, want 14 and %d", workers, tr.Misses, tr.Hits, 86-14)
		}
		if ref == "" {
			ref = got
		} else if got != ref {
			t.Errorf("tables at workers=%d differ from workers=1", workers)
		}
	}
	// A warm pass is served from the run memo and never reaches the traces.
	before := TraceCacheStats()
	renderAll(t, sweepFigures...)
	if r, tr := RunCacheStats(), TraceCacheStats(); r.Misses != 86 || tr != before {
		t.Errorf("warm pass: run misses %d (want 86), trace traffic %+v -> %+v (want none)", r.Misses, before, tr)
	}
}

// TestDecompTracePassVerifiesBytes is the regression for the verification
// gap: a decode of the right length but the wrong bytes fails the trace pass
// with the file named, instead of being timed.
func TestDecompTracePassVerifiesBytes(t *testing.T) {
	SetWorkers(2)
	t.Cleanup(func() { SetWorkers(0) })
	w, err := getWorkload(QuickConfig(), comp.Snappy, comp.Decompress)
	if err != nil {
		t.Fatal(err)
	}
	// Same workload under its own key, one source file altered in place of
	// its last byte: every length still matches.
	suite := *w.suite
	suite.Files = append(suite.Files[:0:0], suite.Files...)
	f := &suite.Files[3]
	f.Data = append(f.Data[:0:0], f.Data...)
	f.Data[len(f.Data)-1] ^= 0xff
	bad := *w
	bad.key, bad.suite = "altered", &suite
	_, err = current().timeSuite(&bad, core.Config{Algo: comp.Snappy}, nil)
	if err == nil || !strings.Contains(err.Error(), "file 3: functional mismatch") {
		t.Errorf("altered file 3: got %v, want a functional mismatch naming file 3", err)
	}
	if !strings.Contains(err.Error(), "config ") {
		t.Errorf("error %q does not name the config", err)
	}
}

// execProbe counts the tasks executing at once, from inside the work itself:
// as a fault injector it is consulted by every timing walk that carries it
// (and injects nothing), and file tasks call enter directly. Yielding while
// counted makes an overlap show whenever two tasks really are in flight.
type execProbe struct {
	active, peak atomic.Int32
}

func (p *execProbe) enter() {
	n := p.active.Add(1)
	for {
		old := p.peak.Load()
		if n <= old || p.peak.CompareAndSwap(old, n) {
			break
		}
	}
	runtime.Gosched()
	p.active.Add(-1)
}

func (p *execProbe) OnAccess(memsys.Placement, memsys.Class, int) memsys.Fault {
	p.enter()
	return memsys.Fault{}
}

// TestTimingWalksHoldPoolSlots is the concurrency probe: with many config
// runs and a file-task batch in flight at once, no more than `workers` tasks
// ever execute together — timing walks hold a pool slot exactly as file tasks
// do, so SetWorkers(1) still means one executing task.
func TestTimingWalksHoldPoolSlots(t *testing.T) {
	t.Cleanup(func() { SetWorkers(0) })
	for _, workers := range []int{1, 2} {
		SetWorkers(workers)
		s := current()
		w, err := getWorkload(QuickConfig(), comp.Snappy, comp.Decompress)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.run(w, core.Config{Algo: comp.Snappy, HistorySRAM: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		probe := &execProbe{}
		var wg sync.WaitGroup
		for walk := 0; walk < 6; walk++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r, err := s.timeSuite(w, core.Config{Algo: comp.Snappy, HistorySRAM: 2 << 10}, probe)
				if err != nil || r != want {
					t.Errorf("probed walk: %+v, err %v; want %+v (the probe injects nothing)", r, err, want)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.parallelFiles(200, func(_, _ int) error { probe.enter(); return nil }); err != nil {
				t.Error(err)
			}
		}()
		wg.Wait()
		// (With the slot acquisition taken out of timeSuite the probe reports
		// 7 and 8 tasks at once here.)
		if peak := int(probe.peak.Load()); peak > workers {
			t.Errorf("workers=%d: %d tasks executed at once", workers, peak)
		}
	}
}

// TestPlainRunErrorsNameTheConfig pins the error context a DSE config run
// shares with the fault path: config key first, then the file.
func TestPlainRunErrorsNameTheConfig(t *testing.T) {
	SetWorkers(2)
	t.Cleanup(func() { SetWorkers(0) })
	w, err := getWorkload(QuickConfig(), comp.Snappy, comp.Decompress)
	if err != nil {
		t.Fatal(err)
	}
	// A watchdog no call can meet fails the first file of a plain run.
	cfg := core.Config{Algo: comp.Snappy, WatchdogFactor: 1e-9}
	_, err = current().run(w, cfg)
	cfg.Op = comp.Decompress
	if err == nil || !strings.HasPrefix(err.Error(), "config "+cfg.Key()+": file 0: ") {
		t.Errorf("got %v, want an error prefixed with the config key and file 0", err)
	}
	if !errors.Is(err, core.ErrWatchdog) {
		t.Errorf("error %v does not unwrap to core.ErrWatchdog", err)
	}
}
