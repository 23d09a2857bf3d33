package sim

import (
	"fmt"
	"math"
	"testing"

	"cdpu/internal/des"
	"cdpu/internal/fault"
)

// desScenarios enumerates the replay shapes whose Reports the discrete-event
// engine must reproduce byte-for-byte from the legacy serial reductions:
// healthy, chaos storm under the full recovery policy, the cluster
// lifecycle-storm replay, and multi-instance fan-outs of each.
func desScenarios() []struct {
	name string
	cfg  Config
} {
	healthy := Config{Seed: 11, Calls: 300, MaxCallBytes: 96 << 10, Pipelines: 2}
	chaos := chaosConfig(1)
	chaos.Calls = 200
	clus := clusterConfig(1)
	devHealthy := healthy
	devHealthy.Devices = 8
	devClus := clusterConfig(1)
	devClus.Devices = 4
	devClus.Calls = 300
	wide := Config{Seed: 5, Calls: 600, MaxCallBytes: 64 << 10, Devices: 32}
	return []struct {
		name string
		cfg  Config
	}{
		{"healthy", healthy},
		{"chaos", chaos},
		{"cluster-lifecycle-storm", clus},
		{"healthy-8dev", devHealthy},
		{"cluster-4dev", devClus},
		{"healthy-32dev", wide},
	}
}

// TestEngineReductionMatchesLegacyOracle is the tentpole's byte-identity
// proof: for every replay shape, the partitioned discrete-event engine at
// workers 1..8 produces a Report byte-identical to the retained pre-DES
// serial reduction (the test-side oracle in oracle_test.go).
func TestEngineReductionMatchesLegacyOracle(t *testing.T) {
	for _, sc := range desScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			oracle := sc.cfg
			oracle.Workers = 1
			want, err := run(oracle, runLegacyReduction)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 8} {
				cfg := sc.cfg
				cfg.Workers = workers
				got, err := Run(cfg)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if *got != *want {
					t.Fatalf("workers=%d: engine report diverges from legacy oracle:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

// TestEngineAbortMatchesLegacyOracle extends the byte-identity proof to the
// abort contract: when every replica of every group crashes with no failover
// headroom, the engine must surface the exact error string — same lowest
// failing call index, same cause — as the legacy oracle, at every worker and
// device count, and the prefix before the named index must still succeed.
func TestEngineAbortMatchesLegacyOracle(t *testing.T) {
	life := &fault.Lifecycle{
		Seed:           7,
		Rate:           1,
		Kinds:          []fault.LifeKind{fault.LifeCrash},
		EpochCalls:     32,
		MeanEventCalls: 1 << 20, // events run to the epoch boundary: replicas never rejoin
	}
	abortCfg := func(workers, calls, devices int) Config {
		return Config{
			Seed:         21,
			Calls:        calls,
			MaxCallBytes: 96 << 10,
			Workers:      workers,
			Replicas:     2,
			Devices:      devices,
			Lifecycle:    life,
		}
	}
	for _, devices := range []int{1, 3} {
		oracle := abortCfg(1, 150, devices)
		_, err := run(oracle, runLegacyReduction)
		if err == nil {
			t.Fatalf("devices=%d: legacy all-replicas-down replay survived", devices)
		}
		want := err.Error()
		for _, workers := range []int{1, 4, 8} {
			_, err := Run(abortCfg(workers, 150, devices))
			if err == nil {
				t.Fatalf("devices=%d workers=%d: engine all-replicas-down replay survived", devices, workers)
			}
			if err.Error() != want {
				t.Errorf("devices=%d workers=%d: engine abort differs from oracle:\n got %v\nwant %v", devices, workers, err, want)
			}
		}
		var failIdx int
		if _, err := fmt.Sscanf(want, "sim: call %d:", &failIdx); err != nil {
			t.Fatalf("devices=%d: abort error does not name the failing call: %v", devices, want)
		}
		if failIdx > 0 {
			if _, err := Run(abortCfg(4, failIdx, devices)); err != nil {
				t.Errorf("devices=%d: prefix before reported first failure (calls 0..%d) did not succeed: %v", devices, failIdx-1, err)
			}
		}
	}
}

// TestHundredTwentyEightDevicesWorkerInvariant pins the scaling target's
// correctness half: a 128-device fleet (32 instances per slot, so 128
// partitions) produces a byte-identical Report at every worker count, and
// deploys 32x the silicon of the single-instance fleet.
func TestHundredTwentyEightDevicesWorkerInvariant(t *testing.T) {
	base := Config{Seed: 3, Calls: 800, MaxCallBytes: 64 << 10, Devices: 32, Workers: 1}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Fatalf("workers=%d: 128-device report diverges:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	one := base
	one.Devices = 1
	single, err := Run(one)
	if err != nil {
		t.Fatal(err)
	}
	// Area sums once per partition (128 additions) instead of 4, so allow
	// float-accumulation rounding while pinning the 32x scaling.
	if got, want := want.AreaMM2, single.AreaMM2*32; math.Abs(got-want) > 1e-9*want {
		t.Errorf("128-device fleet area %v, want 32x single-instance %v", got, want)
	}
	if want.GoodputBytes != single.GoodputBytes {
		t.Errorf("instance routing changed served traffic: %d vs %d bytes", want.GoodputBytes, single.GoodputBytes)
	}
}

// TestDevicesSpreadReducesQueueing pins the model's direction: under heavy
// offered load, fanning the same call mix across 8 instances per slot strictly
// reduces queueing (mean latency) — the fleet-width capacity axis behaves.
func TestDevicesSpreadReducesQueueing(t *testing.T) {
	base := Config{Seed: 17, Calls: 500, MaxCallBytes: 96 << 10, OfferedGBps: 60, Workers: 4}
	narrow, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	wideCfg := base
	wideCfg.Devices = 8
	wide, err := Run(wideCfg)
	if err != nil {
		t.Fatal(err)
	}
	if wide.MeanLatencyUs >= narrow.MeanLatencyUs {
		t.Errorf("8-wide fleet mean latency %v did not improve on 1-wide %v", wide.MeanLatencyUs, narrow.MeanLatencyUs)
	}
}

// TestContentionStretchesReport pins the opt-in shared-resource model at the
// replay level: generous budgets leave the Report byte-identical to
// Contention nil (stretch is exactly 1.0), an overcommitted fabric strictly
// inflates latency, and the contended Report stays worker-count invariant.
func TestContentionStretchesReport(t *testing.T) {
	base := Config{Seed: 13, Calls: 400, MaxCallBytes: 96 << 10, Devices: 4, Workers: 2}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	loose := base
	loose.Contention = &des.Shared{StreamBytesPerCycle: 1e12, LinkOpsPerCycle: 1e12, LLCBytes: 1e18}
	looseR, err := Run(loose)
	if err != nil {
		t.Fatal(err)
	}
	if *looseR != *plain {
		t.Errorf("generous shared budgets changed the report:\n got %+v\nwant %+v", looseR, plain)
	}
	tight := base
	tight.Contention = &des.Shared{StreamBytesPerCycle: 1e-4}
	tight.EpochCycles = 1 << 16
	tightR, err := Run(tight)
	if err != nil {
		t.Fatal(err)
	}
	if tightR.MeanLatencyUs <= plain.MeanLatencyUs {
		t.Errorf("overcommitted fabric did not stretch latency: %v <= %v", tightR.MeanLatencyUs, plain.MeanLatencyUs)
	}
	for _, workers := range []int{1, 8} {
		cfg := tight
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *tightR {
			t.Fatalf("workers=%d: contended report not worker-invariant:\n got %+v\nwant %+v", workers, got, tightR)
		}
	}
}
