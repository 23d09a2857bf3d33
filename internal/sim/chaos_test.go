package sim

import (
	"strings"
	"testing"

	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
)

// testPolicy is the reference full recovery policy: retries with jittered
// backoff, software fallback, quarantine and a bounded queue.
func testPolicy() resil.Policy { return resil.ReferencePolicy() }

func chaosConfig(workers int) Config {
	return Config{
		Seed:         21,
		Calls:        150,
		MaxCallBytes: 96 << 10,
		Workers:      workers,
		Resilience:   testPolicy(),
		Storm:        &fault.Storm{Seed: 77, Rate: 0.15, MeanRepeats: 1},
	}
}

// TestChaosRunSurvivesAndDegrades pins the headline recovery behavior: a
// storm hitting ~15% of calls completes with no error, serves every call
// (device or fallback), and reports every recovery mechanism firing.
func TestChaosRunSurvivesAndDegrades(t *testing.T) {
	retries0 := resil.MetricRetries.Value()
	fallbacks0 := resil.MetricFallbacks.Value()
	r, err := Run(chaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultedCalls == 0 {
		t.Fatal("storm at 15% hit no calls")
	}
	if r.RetryAttempts == 0 {
		t.Error("no retries under transient faults")
	}
	if r.DegradedCalls == 0 {
		t.Error("no calls fell back to software")
	}
	if r.GoodputBytes > r.UncompressedBytes {
		t.Errorf("goodput %d exceeds offered bytes %d", r.GoodputBytes, r.UncompressedBytes)
	}
	if r.ShedCalls == 0 && r.GoodputBytes != r.UncompressedBytes {
		t.Errorf("no sheds but goodput %d != offered %d", r.GoodputBytes, r.UncompressedBytes)
	}
	// The obs counters reconcile with the per-call outcome totals.
	if d := resil.MetricRetries.Value() - retries0; d != int64(r.RetryAttempts) {
		t.Errorf("retry counter delta %d != report %d", d, r.RetryAttempts)
	}
	if d := resil.MetricFallbacks.Value() - fallbacks0; d != int64(r.DegradedCalls) {
		t.Errorf("fallback counter delta %d != report %d", d, r.DegradedCalls)
	}
}

// TestChaosReportWorkerInvariant pins determinism under chaos: the stormed,
// recovered Report is byte-identical at any worker count, because the storm
// schedule, backoff jitter and fallback costs are all pure functions of
// (seed, call index).
func TestChaosReportWorkerInvariant(t *testing.T) {
	want, err := Run(chaosConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{4, 16} {
		got, err := Run(chaosConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: chaos report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	// Tracing the recovery timeline changes no modeled cycles either.
	traced := chaosConfig(4)
	traced.Trace = obs.NewTrace(2.0)
	got, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("tracing changed the chaos report:\n got %+v\nwant %+v", got, want)
	}
	if traced.Trace.Len() == 0 {
		t.Error("traced chaos run recorded no spans")
	}
}

// TestChaosZeroPolicyAborts pins the baseline the recovery layer is measured
// against: the same storm under the zero policy aborts the run, and —
// satellite of the deterministic-first-error fix — reports the same lowest
// failing call index at every worker count.
func TestChaosZeroPolicyAborts(t *testing.T) {
	cfg := chaosConfig(1)
	cfg.Resilience = resil.Policy{}
	_, err := Run(cfg)
	if err == nil {
		t.Fatal("zero policy survived a fault storm")
	}
	for _, workers := range []int{4, 16} {
		c := chaosConfig(workers)
		c.Resilience = resil.Policy{}
		_, got := Run(c)
		if got == nil {
			t.Fatalf("workers=%d: zero policy survived a fault storm", workers)
		}
		if got.Error() != err.Error() {
			t.Errorf("workers=%d: first error differs from serial run:\n got %v\nwant %v", workers, got, err)
		}
	}
	if !strings.Contains(err.Error(), "sim: call ") {
		t.Errorf("abort error does not name the failing call: %v", err)
	}
}

// TestExecCallsFirstErrorIsLowestIndex is the regression test for the
// deterministic first-error capture in execCalls: when every call fails (a
// rate-1 storm of memory faults under the abort policy), the reported error
// must name call 0 — the first a serial run would hit — no matter which
// worker's failure lands first in wall-clock time.
func TestExecCallsFirstErrorIsLowestIndex(t *testing.T) {
	for _, workers := range []int{1, 8} {
		cfg := chaosConfig(workers)
		cfg.Resilience = resil.Policy{}
		cfg.Storm = &fault.Storm{Seed: 1, Rate: 1, Kinds: []fault.StormKind{fault.StormMemFault}}
		_, err := Run(cfg)
		if err == nil {
			t.Fatalf("workers=%d: rate-1 storm under abort policy survived", workers)
		}
		if !strings.Contains(err.Error(), "sim: call 0:") {
			t.Errorf("workers=%d: first error is not call 0: %v", workers, err)
		}
	}
}

// TestChaosNoCorruptBytesSurface pins the correctness contract at a brutal
// fault rate: half the calls are hit, and every one must either be served
// verified (device retry or checked software fallback) or be shed explicitly.
// Any corrupt output would fail the fallback round-trip verification inside
// the replay and surface as an error here.
func TestChaosNoCorruptBytesSurface(t *testing.T) {
	cfg := chaosConfig(4)
	cfg.Storm = &fault.Storm{Seed: 5, Rate: 0.5, MeanRepeats: 2}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.DegradedCalls == 0 {
		t.Error("50% storm degraded no calls")
	}
	if r.GoodputBytes <= 0 {
		t.Error("no goodput under storm")
	}
}

// TestChaosRetryOnlyRecoversTransients pins the retry path in isolation:
// with fallback off but retries on, a storm of single-shot transient faults
// (every hit clears after one faulted dispatch) is fully absorbed by retries.
func TestChaosRetryOnlyRecoversTransients(t *testing.T) {
	cfg := chaosConfig(4)
	cfg.Storm = &fault.Storm{Seed: 9, Rate: 0.2,
		Kinds: []fault.StormKind{fault.StormMemFault, fault.StormWatchdog}}
	cfg.Resilience = resil.Policy{MaxAttempts: 3, BackoffBaseCycles: 1000}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.RetryAttempts == 0 || r.DegradedCalls != 0 {
		t.Errorf("retry-only recovery: %d retries, %d degraded (want >0, 0)", r.RetryAttempts, r.DegradedCalls)
	}
	if r.FaultedCalls == 0 {
		t.Error("storm hit no calls")
	}
}

// TestChaosStormKeepsCallMix pins that adding a storm never perturbs the
// sampled call mix: offered bytes and baseline cost match the healthy run.
func TestChaosStormKeepsCallMix(t *testing.T) {
	healthy, err := Run(Config{Seed: 21, Calls: 150, MaxCallBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stormed, err := Run(chaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if stormed.UncompressedBytes != healthy.UncompressedBytes ||
		stormed.XeonCoresNeeded != healthy.XeonCoresNeeded {
		t.Errorf("storm perturbed the call mix:\n stormed %+v\n healthy %+v", stormed, healthy)
	}
}

// TestChaosLatencyDominatesHealthy sanity-checks the cost model: recovery is
// never free, so mean latency under a storm with retries and fallbacks must
// exceed the healthy replay's.
func TestChaosLatencyDominatesHealthy(t *testing.T) {
	healthy, err := Run(Config{Seed: 21, Calls: 150, MaxCallBytes: 96 << 10})
	if err != nil {
		t.Fatal(err)
	}
	stormed, err := Run(chaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if stormed.MeanLatencyUs <= healthy.MeanLatencyUs {
		t.Errorf("storm mean latency %f us not above healthy %f us",
			stormed.MeanLatencyUs, healthy.MeanLatencyUs)
	}
}

// TestChaosRemotePlacement exercises the PCIe path end to end under storm —
// link-dominated detection latencies and placement-aware reset costs.
func TestChaosRemotePlacement(t *testing.T) {
	cfg := chaosConfig(4)
	cfg.Placement = memsys.PCIeNoCache
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultedCalls == 0 || r.GoodputBytes <= 0 {
		t.Errorf("remote chaos replay implausible: %+v", r)
	}
}
