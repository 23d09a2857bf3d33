package sim

import (
	"testing"

	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// overloadConfig is the reference overload replay: a flash crowd multiplying
// a sampled tenant band's rate on top of an already-loaded open loop, burn
// tracking over the head tenants, burn-driven autoscaling, deadline-aware
// admission, and tight SLO targets so the control plane has harm to react to.
func overloadConfig() Config {
	return Config{
		Seed: 13, Calls: 700, MaxCallBytes: 64 << 10, Pipelines: 2,
		Replicas:   3,
		Resilience: resil.Policy{MaxQueue: 32, DeadlineFactor: 2},
		Traffic: traffic.Pattern{
			CallsPerMcycle: 3000,
			FlashFactor:    20, FlashOnCycles: 2e5, FlashOffCycles: 6e5, FlashRankFrac: 0.05,
		},
		// A small, heavily skewed tenant population so the head tenants
		// accumulate enough per-tenant window samples for the multi-window
		// alert condition inside a 700-call replay.
		Tenants:   traffic.Tenants{N: 64, ZipfS: 1.1},
		SLO:       traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}},
		Burn:      traffic.BurnConfig{TopK: 8, ReservoirSize: 8, FastWindowCycles: 2e5, SlowWindowCycles: 2e6},
		Autoscale: traffic.Autoscale{MinReplicas: 1, UpBurn: 4, DownBurn: 1, CooldownCycles: 5e4, BurnWindowCycles: 2e5},
		Workers:   1,
	}
}

// TestOverloadZeroKnobGolden is this release's bit-compatibility contract:
// with every overload knob zero — no flash crowd, no burn tracking, no
// deadline factor, queue-depth (not burn) autoscaling — the replay must
// reproduce the exact pre-overload Reports at every worker count. The
// literals were captured on the engine before the overload control plane
// existed; any drift means a zero-value gate leaked.
func TestOverloadZeroKnobGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Report
	}{
		{
			name: "openloop-600",
			cfg: Config{
				Seed: 7, Calls: 600, MaxCallBytes: 64 << 10, Pipelines: 2,
				Resilience: resil.Policy{MaxQueue: 32},
				Traffic: traffic.Pattern{
					CallsPerMcycle: 4000, Diurnal: []float64{1, 3},
					BurstFactor: 4, BurstOnCycles: 1e5, BurstOffCycles: 3e5,
				},
				Tenants: traffic.Tenants{ZipfS: 0.7},
			},
			want: Report{
				Calls:                 600,
				UncompressedBytes:     3890828,
				XeonCoresNeeded:       136.15963984389143,
				MeanLatencyUs:         8.795678000064221,
				P99LatencyUs:          24.926760654917324,
				CompUtil:              0.9267104610736835,
				DecompUtil:            0.993035729081761,
				SoftwareMeanLatencyUs: 10.720666315051602,
				AreaMM2:               13.012793600000002,
				ShedCalls:             290,
				GoodputBytes:          2370142,
				PerClass: [traffic.NumClasses]ClassReport{
					{Calls: 127, ShedCalls: 19, GoodputBytes: 676106},
					{Calls: 148, ShedCalls: 55, GoodputBytes: 719383},
					{Calls: 325, ShedCalls: 216, GoodputBytes: 974653},
				},
			},
		},
		{
			name: "openloop-auto-900",
			cfg: Config{
				Seed: 7, Calls: 900, MaxCallBytes: 64 << 10, Pipelines: 2,
				Replicas:   3,
				Resilience: resil.Policy{MaxQueue: 32},
				Traffic: traffic.Pattern{
					CallsPerMcycle: 2000, BurstFactor: 6,
					BurstOnCycles: 2e5, BurstOffCycles: 8e5,
				},
				Tenants:   traffic.Tenants{ZipfS: 0.7},
				Autoscale: traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4},
			},
			want: Report{
				Calls:                 900,
				UncompressedBytes:     5684541,
				XeonCoresNeeded:       78.32058848348439,
				MeanLatencyUs:         3.5405722070291805,
				P99LatencyUs:          18.30753125,
				CompUtil:              0.2524596746737257,
				DecompUtil:            0.40061681999013127,
				SoftwareMeanLatencyUs: 10.79047924868174,
				AreaMM2:               39.0383808,
				ShedCalls:             213,
				GoodputBytes:          4663768,
				AutoscaleUps:          6,
				AutoscaleDowns:        2,
				PerClass: [traffic.NumClasses]ClassReport{
					{Calls: 195, GoodputBytes: 1069407},
					{Calls: 243, ShedCalls: 36, GoodputBytes: 1433707},
					{Calls: 462, ShedCalls: 177, GoodputBytes: 2160654},
				},
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 4, 8} {
			cfg := tc.cfg
			cfg.Workers = workers
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if *got != tc.want {
				t.Errorf("%s w=%d: zero-knob overload plane drifted from golden report:\n got %+v\nwant %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestOverloadWorkerInvariance: the full overload control plane — flash
// crowds, per-tenant burn tracking, burn-driven autoscaling, deadline-aware
// admission — is byte-identical at any worker count, and the engine path
// matches the retained legacy serial oracle.
func TestOverloadWorkerInvariance(t *testing.T) {
	base := overloadConfig()
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	// The scenario must actually exercise the new machinery, or the
	// invariance claim is vacuous.
	if want.BurnAlerts == 0 {
		t.Fatal("overload scenario raised no burn alerts")
	}
	if want.DeadlineSheds == 0 {
		t.Fatal("overload scenario shed nothing on deadline")
	}
	if want.AutoscaleUps == 0 {
		t.Fatal("overload scenario never scaled up on burn")
	}
	if want.DeadlineSheds > want.ShedCalls {
		t.Fatalf("DeadlineSheds %d exceed ShedCalls %d", want.DeadlineSheds, want.ShedCalls)
	}
	sum := 0
	for cl := range want.PerClass {
		sum += want.PerClass[cl].BurnAlerts
	}
	if sum != want.BurnAlerts {
		t.Fatalf("per-class burn alerts %d do not sum to total %d", sum, want.BurnAlerts)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: overload report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	oracle := base
	got, err := run(oracle, runLegacyReduction)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("engine overload report differs from legacy oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestOverloadMetricsReconcile: the burn-alert and deadline-shed counter
// deltas across one Run equal the Report totals — the reconciliation
// invariant every other outcome counter in the replay carries.
func TestOverloadMetricsReconcile(t *testing.T) {
	var burn0 [traffic.NumClasses]int64
	for c := range burn0 {
		burn0[c] = metricClassBurn[c].Value()
	}
	dl0 := resil.MetricDeadlineSheds.Value()
	shed0 := resil.MetricSheds.Value()
	r, err := Run(overloadConfig())
	if err != nil {
		t.Fatal(err)
	}
	for c := range burn0 {
		if d := metricClassBurn[c].Value() - burn0[c]; d != int64(r.PerClass[c].BurnAlerts) {
			t.Errorf("class %d burn_alerts counter delta %d != report %d", c, d, r.PerClass[c].BurnAlerts)
		}
	}
	if d := resil.MetricDeadlineSheds.Value() - dl0; d != int64(r.DeadlineSheds) {
		t.Errorf("resil.deadline_sheds delta %d != report %d", d, r.DeadlineSheds)
	}
	// Deadline sheds are a subset of sheds in the counters too.
	if d := resil.MetricSheds.Value() - shed0; d != int64(r.ShedCalls) {
		t.Errorf("resil.sheds delta %d != report ShedCalls %d", d, r.ShedCalls)
	}
}

// TestOpenLoopDeadlineShedding: on the single-device path, deadline-aware
// admission under sustained overload sheds the hopeless calls and strictly
// reduces the device cycles wasted on served-but-over-target work.
func TestOpenLoopDeadlineShedding(t *testing.T) {
	cfg := openLoopConfig(8000)
	cfg.SLO = traffic.SLO{TargetUs: [traffic.NumClasses]float64{10, 40, 160}}
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.DeadlineSheds != 0 {
		t.Fatalf("deadline sheds with factor zero: %d", base.DeadlineSheds)
	}
	if base.WastedCycles == 0 {
		t.Fatal("overload baseline wasted no cycles — scenario too light to test against")
	}
	dl := cfg
	dl.Resilience.DeadlineFactor = 2
	got, err := Run(dl)
	if err != nil {
		t.Fatal(err)
	}
	if got.DeadlineSheds == 0 {
		t.Fatal("no deadline sheds under sustained overload with factor 2")
	}
	if got.DeadlineSheds > got.ShedCalls {
		t.Fatalf("DeadlineSheds %d exceed ShedCalls %d", got.DeadlineSheds, got.ShedCalls)
	}
	if got.WastedCycles >= base.WastedCycles {
		t.Fatalf("deadline shedding did not reduce wasted cycles: %.0f -> %.0f", base.WastedCycles, got.WastedCycles)
	}
}

// TestBurnPassIsPureObserver: the burn tracker reads outcomes but steers
// nothing — a run with Burn enabled differs from the same run without it only
// in the BurnAlerts fields.
func TestBurnPassIsPureObserver(t *testing.T) {
	cfg := overloadConfig()
	withBurn, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Burn = traffic.BurnConfig{}
	without, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if without.BurnAlerts != 0 {
		t.Fatalf("burn alerts without a tracker: %d", without.BurnAlerts)
	}
	scrub := *withBurn
	scrub.BurnAlerts = 0
	for cl := range scrub.PerClass {
		scrub.PerClass[cl].BurnAlerts = 0
	}
	if scrub != *without {
		t.Errorf("burn tracking perturbed the replay:\n with %+v\n sans %+v", scrub, without)
	}
}
