package sim

import (
	"reflect"
	"testing"

	"cdpu/internal/cluster"
	"cdpu/internal/des"
	"cdpu/internal/fault"
	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// fullPlaneConfig crosses every knob family in one small replay: a flash-crowd
// open loop over 64 tenants, the reference recovery policy with a tight queue
// and deadline admission, a fault storm, a dense lifecycle schedule, the
// reference failover policy (breakers, hedging, warm restarts), burn tracking,
// the burn-driven autoscaler, two device instances per slot, and shared
// resources tight enough that every epoch barrier stretches the next epoch.
func fullPlaneConfig() Config {
	pol := resil.ReferencePolicy()
	pol.MaxQueue, pol.DeadlineFactor = 32, 2
	return Config{
		Seed: 9, Calls: 3000, MaxCallBytes: 64 << 10,
		Pipelines: 2, Devices: 2, Replicas: 3,
		Traffic: traffic.Pattern{
			CallsPerMcycle: 3000,
			FlashFactor:    20, FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: 0.05,
		},
		Tenants:     traffic.Tenants{N: 64, ZipfS: 1.1},
		SLO:         traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}},
		Resilience:  pol,
		Storm:       &fault.Storm{Seed: 1009, Rate: 0.05, MeanRepeats: 1},
		Lifecycle:   &fault.Lifecycle{Seed: 2009, Rate: 0.25, EpochCalls: 64},
		Failover:    cluster.ReferenceFailoverPolicy(),
		Burn:        traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6},
		Autoscale:   traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5},
		Contention:  &des.Shared{StreamBytesPerCycle: 0.5, LinkOpsPerCycle: 0.001, LLCBytes: 1 << 20},
		EpochCycles: 1 << 16,
	}
}

// TestFullPlaneGolden pins the one Report in tier-1 that has Contention,
// Lifecycle, Failover, Autoscale and Storm on together, so breakers open,
// hedges win and replicas restart under the event engine while the partitions
// share resources. The last breaker window is still open when the replay ends
// (UnavailableCycles is not a multiple of BreakerOpenCycles), so the books
// Finish closes are inside the literal too. The uncontended run of the same
// config reads MeanLatencyUs 16.92: the shared budgets are what this measures.
// Every counter is required non-zero so that a knob that stops reaching the
// Report fails here before the literal is looked at.
func TestFullPlaneGolden(t *testing.T) {
	want := Report{
		Calls:                 3000,
		UncompressedBytes:     21090243,
		XeonCoresNeeded:       81.84320948606513,
		MeanLatencyUs:         45.99917103070791,
		P99LatencyUs:          258.6090110436886,
		CompUtil:              0.6944830997801102,
		DecompUtil:            0.7386725945134741,
		SoftwareMeanLatencyUs: 12.178470526505652,
		AreaMM2:               78.07676160000001,
		FaultedCalls:          170,
		RetryAttempts:         161,
		DegradedCalls:         358,
		ShedCalls:             2142,
		Quarantines:           6,
		GoodputBytes:          6890818,
		Failovers:             19,
		HedgedCalls:           149,
		HedgeWins:             3,
		BreakerOpens:          6,
		ReplicaRestarts:       13,
		UnavailableCycles:     1.0095993478260869e+06,
		SLOViolations:         151,
		AutoscaleUps:          17,
		AutoscaleDowns:        1,
		DeadlineSheds:         195,
		WastedCycles:          9.578426051396132e+06,
		BurnAlerts:            18,
		PerClass: [traffic.NumClasses]ClassReport{
			{Calls: 515, ShedCalls: 387, SLOViolations: 55, GoodputBytes: 488677, BurnAlerts: 1},
			{Calls: 883, ShedCalls: 587, SLOViolations: 69, GoodputBytes: 2021879, BurnAlerts: 5},
			{Calls: 1602, ShedCalls: 1168, SLOViolations: 27, GoodputBytes: 4380262, BurnAlerts: 12},
		},
	}
	for _, workers := range []int{1, 2, 8} {
		cfg := fullPlaneConfig()
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		gv, wv := reflect.ValueOf(*got), reflect.ValueOf(want)
		requireNoZeroField(t, "Report", gv)
		for i := 0; i < gv.NumField(); i++ {
			if g, w := gv.Field(i).Interface(), wv.Field(i).Interface(); g != w {
				t.Errorf("workers=%d: %s = %v, want %v", workers, gv.Type().Field(i).Name, g, w)
			}
		}
	}
}

// requireNoZeroField fails for every numeric field of v, at any depth of
// structs and arrays, that is zero.
func requireNoZeroField(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			requireNoZeroField(t, path+"."+v.Type().Field(i).Name, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			requireNoZeroField(t, path, v.Index(i))
		}
	default:
		if v.IsZero() {
			t.Errorf("%s is zero: the full-plane replay no longer exercises it", path)
		}
	}
}
