package sim

import (
	"math"
	"strings"
	"testing"

	"cdpu/internal/cluster"
	"cdpu/internal/des"
	"cdpu/internal/fault"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// openLoopConfig is the reference open-loop replay: a bounded queue (which
// defaults PriorityClasses on), a moderate Zipf skew that populates all three
// SLO classes, and a rate near the fleet's knee so admission control has work
// to do at higher multiples.
func openLoopConfig(rate float64) Config {
	return Config{
		Seed: 7, Calls: 600, MaxCallBytes: 64 << 10, Pipelines: 2,
		Resilience: resil.Policy{MaxQueue: 32},
		Traffic:    traffic.Pattern{CallsPerMcycle: rate},
		Tenants:    traffic.Tenants{ZipfS: 0.7},
		Workers:    2,
	}
}

// TestConfigValidate pins the fail-fast input validation: withDefaults remaps
// only an exact 0, so a non-finite or negative OfferedGBps would surface as a
// NaN-arrival stepper error deep in phase C; Run rejects it by name, along
// with malformed open-loop parameters and an Autoscale policy in either
// arrival mode (every replica group applies it).
func TestConfigValidate(t *testing.T) {
	bad := []struct {
		name string
		cfg  Config
	}{
		{"negative-max-call-bytes", Config{MaxCallBytes: -1}},
		{"negative-devices", Config{Devices: -2}},
		{"negative-replicas", Config{Replicas: -2}},
		{"negative-workers", Config{Workers: -3}},
		{"negative-pipelines", Config{Pipelines: -1}},
		{"too-many-pipelines", Config{Pipelines: 65}},
		{"negative-gbps", Config{OfferedGBps: -1}},
		{"nan-gbps", Config{OfferedGBps: math.NaN()}},
		{"inf-gbps", Config{OfferedGBps: math.Inf(1)}},
		{"negative-calls", Config{Calls: -5}},
		{"nan-rate", Config{Traffic: traffic.Pattern{CallsPerMcycle: math.NaN()}}},
		{"negative-rate", Config{Traffic: traffic.Pattern{CallsPerMcycle: -3}}},
		{"bad-diurnal", Config{Traffic: traffic.Pattern{CallsPerMcycle: 10, Diurnal: []float64{1, -2}}}},
		{"bad-burst", Config{Traffic: traffic.Pattern{CallsPerMcycle: 10, BurstFactor: -1}}},
		{"bad-zipf", Config{
			Traffic: traffic.Pattern{CallsPerMcycle: 10},
			Tenants: traffic.Tenants{ZipfS: math.NaN()},
		}},
		{"bad-slo", Config{
			Traffic: traffic.Pattern{CallsPerMcycle: 10},
			SLO:     traffic.SLO{TargetUs: [traffic.NumClasses]float64{-1, 0, 0}},
		}},
		{"autoscale-no-replicas", Config{
			Traffic:   traffic.Pattern{CallsPerMcycle: 10},
			Autoscale: traffic.Autoscale{UpQueueDepth: 4},
		}},
		{"autoscale-inverted", Config{
			Replicas:  3,
			Traffic:   traffic.Pattern{CallsPerMcycle: 10},
			Autoscale: traffic.Autoscale{UpQueueDepth: 4, DownQueueDepth: 9},
		}},
		{"burst-period-between-arrivals", Config{
			Traffic: traffic.Pattern{CallsPerMcycle: 0.0175, BurstFactor: 27, BurstOnCycles: 8, BurstOffCycles: 16},
		}},
		{"flash-period-between-arrivals", Config{
			Traffic: traffic.Pattern{CallsPerMcycle: 1, Diurnal: []float64{1, 0.01}, FlashFactor: 4, FlashOnCycles: 2, FlashOffCycles: 2},
		}},
		{"closed-loop-autoscale-one-replica", Config{Replicas: 1, Autoscale: traffic.Autoscale{UpQueueDepth: 2}}},
		{"closed-loop-autoscale-inverted", Config{Replicas: 3, Autoscale: traffic.Autoscale{UpQueueDepth: 4, DownQueueDepth: 5}}},
		{"closed-loop-autoscale-negative-min", Config{Replicas: 3, Autoscale: traffic.Autoscale{MinReplicas: -4, UpQueueDepth: 4}}},
		{"closed-loop-autoscale-negative-cooldown", Config{Replicas: 3, Autoscale: traffic.Autoscale{UpQueueDepth: 4, CooldownCycles: -1}}},
		// An unknown storm kind would run as a watchdog hang; an unknown
		// lifecycle kind would count its replica sick and serve it at healthy
		// speed.
		{"unknown-storm-kind", Config{Storm: &fault.Storm{Rate: 0.1, Kinds: []fault.StormKind{fault.StormBitFlip, fault.StormKind(7)}}}},
		{"unknown-lifecycle-kind", Config{Replicas: 2, Lifecycle: &fault.Lifecycle{Rate: 0.1, Kinds: []fault.LifeKind{fault.LifeKind(7)}}}},
	}
	// validate() itself must refuse each one — before phases A and B run, not
	// when a later layer trips over the value.
	for _, tc := range bad {
		if err := tc.cfg.withDefaults().validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := Run(Config{Workers: -3}); err == nil || err.Error() != "sim: Workers -3 (want non-negative)" {
		t.Errorf("Run(Workers: -3): %v, want the field named", err)
	}
	// The zero config (all defaults) and a well-formed open-loop config stay
	// accepted.
	if err := (Config{}).withDefaults().validate(); err != nil {
		t.Errorf("zero config rejected: %v", err)
	}
	good := openLoopConfig(1000)
	good.Replicas = 2
	good.Autoscale = traffic.Autoscale{UpQueueDepth: 8}
	if err := good.withDefaults().validate(); err != nil {
		t.Errorf("well-formed open-loop config rejected: %v", err)
	}
}

// TestConfigValidateFaultAndContentionFields: a storm, lifecycle or breaker
// rate that is no probability, and a contention budget, an epoch, a fault
// length, a failover count or a cycle charge that is negative or not a number,
// are each refused with the field named, and the edges of each range stay
// accepted.
func TestConfigValidateFaultAndContentionFields(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	storm := func(r float64) Config { return Config{Storm: &fault.Storm{Rate: r}} }
	life := func(r float64) Config { return Config{Lifecycle: &fault.Lifecycle{Rate: r}} }
	failover := func(set func(*cluster.FailoverPolicy, float64)) func(float64) Config {
		return func(v float64) Config {
			c := Config{Replicas: 3, Failover: cluster.ReferenceFailoverPolicy()}
			set(&c.Failover, v)
			return c
		}
	}
	type fp = cluster.FailoverPolicy
	stream := func(v float64) Config { return Config{Contention: &des.Shared{StreamBytesPerCycle: v}} }
	link := func(v float64) Config { return Config{Contention: &des.Shared{LinkOpsPerCycle: v}} }
	llc := func(v float64) Config { return Config{Contention: &des.Shared{LLCBytes: v}} }
	epoch := func(v float64) Config { return Config{Contention: &des.Shared{}, EpochCycles: v} }
	for _, tc := range []struct {
		field     string
		cfg       func(float64) Config
		bad, good []float64
	}{
		{"Storm.Rate", storm, []float64{-0.01, 1.01, nan, inf}, []float64{0, 0.5, 1}},
		{"Lifecycle.Rate", life, []float64{-0.01, 1.01, nan, inf}, []float64{0, 0.5, 1}},
		{"Contention.StreamBytesPerCycle", stream, []float64{-1, nan, inf}, []float64{0, 64}},
		{"Contention.LinkOpsPerCycle", link, []float64{-1, nan, inf}, []float64{0, 0.01}},
		{"Contention.LLCBytes", llc, []float64{-1, nan, inf}, []float64{0, 32 << 20}},
		{"EpochCycles", epoch, []float64{-1, nan, inf}, []float64{0, 1 << 16}},
		{"Storm.MeanRepeats", func(v float64) Config { return Config{Storm: &fault.Storm{Rate: 0.1, MeanRepeats: v}} },
			[]float64{-0.5, nan, inf}, []float64{0, 2.5}},
		{"Lifecycle.EpochCalls", func(v float64) Config { return Config{Lifecycle: &fault.Lifecycle{Rate: 0.1, EpochCalls: int(v)}} },
			[]float64{-1}, []float64{0, 64}},
		{"Lifecycle.MeanEventCalls", func(v float64) Config { return Config{Lifecycle: &fault.Lifecycle{Rate: 0.1, MeanEventCalls: int(v)}} },
			[]float64{-1}, []float64{0, 24}},
		{"Failover.MaxFailovers", failover(func(p *fp, v float64) { p.MaxFailovers = int(v) }), []float64{-1}, []float64{0, 3}},
		{"Failover.FailoverPenaltyCycles", failover(func(p *fp, v float64) { p.FailoverPenaltyCycles = v }), []float64{-1, nan, inf}, []float64{0, 2000}},
		{"Failover.BreakerFailures", failover(func(p *fp, v float64) { p.BreakerFailures = int(v) }), []float64{-1}, []float64{0, 3}},
		{"Failover.BreakerWindow", failover(func(p *fp, v float64) { p.BreakerWindow = int(v) }), []float64{-1}, []float64{0, 32}},
		{"Failover.BreakerErrorRate", failover(func(p *fp, v float64) { p.BreakerErrorRate = v }), []float64{-0.01, 1.01, nan, inf}, []float64{0, 0.5, 1}},
		{"Failover.BreakerOpenCycles", failover(func(p *fp, v float64) { p.BreakerOpenCycles = v }), []float64{-1, nan, inf}, []float64{0, 2e5}},
		{"Failover.BreakerHalfOpenProbes", failover(func(p *fp, v float64) { p.BreakerHalfOpenProbes = int(v) }), []float64{-1}, []float64{0, 2}},
		{"Failover.HedgeDelayCycles", failover(func(p *fp, v float64) { p.HedgeDelayCycles = v }), []float64{-1, nan, inf}, []float64{0, 120000}},
		{"Failover.CrashDetectCycles", failover(func(p *fp, v float64) { p.CrashDetectCycles = v }), []float64{-1, nan, inf}, []float64{0, 4000}},
		{"Failover.RestartCycles", failover(func(p *fp, v float64) { p.RestartCycles = v }), []float64{-1, nan, inf}, []float64{0, 50000}},
	} {
		for _, v := range tc.bad {
			err := tc.cfg(v).withDefaults().validate()
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s = %v: got %v, want an error naming the field", tc.field, v, err)
			}
		}
		for _, v := range tc.good {
			if err := tc.cfg(v).withDefaults().validate(); err != nil {
				t.Errorf("%s = %v rejected: %v", tc.field, v, err)
			}
		}
	}
	if _, err := Run(storm(nan)); err == nil {
		t.Error("Run accepted a NaN Storm.Rate")
	}
}

// TestTrafficZeroValueGolden is the bit-compatibility contract for this
// release: with the zero traffic.Pattern (open loop disabled), the replay
// must reproduce the exact pre-traffic Reports — healthy, stormed, and full
// cluster chaos — at every worker count. The literals were captured on the
// engine before the traffic layer existed; any drift means a zero-value gate
// leaked.
func TestTrafficZeroValueGolden(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Report
	}{
		{
			name: "healthy-500",
			cfg: Config{
				Seed: 1, Calls: 500, MaxCallBytes: 256 << 10,
				Traffic: traffic.Pattern{},
			},
			want: Report{
				Calls:                 500,
				UncompressedBytes:     5695196,
				XeonCoresNeeded:       3.19652560556381,
				MeanLatencyUs:         2.2409452964036434,
				P99LatencyUs:          34.689,
				CompUtil:              0.11268901970391408,
				DecompUtil:            0.10350311863488905,
				SoftwareMeanLatencyUs: 19.280606413130435,
				AreaMM2:               6.666396800000001,
				GoodputBytes:          5695196,
			},
		},
		{
			name: "chaos-500",
			cfg: Config{
				Seed: 1, Calls: 500, MaxCallBytes: 256 << 10,
				Resilience: testPolicy(),
				Storm:      &fault.Storm{Seed: 1001, Rate: 0.02, MeanRepeats: 1},
				Traffic:    traffic.Pattern{},
			},
			want: Report{
				Calls:                 500,
				UncompressedBytes:     5695196,
				XeonCoresNeeded:       3.19652560556381,
				MeanLatencyUs:         3523.767196916788,
				P99LatencyUs:          7083.456698511947,
				CompUtil:              0.1768959861132642,
				DecompUtil:            0.9063193414737074,
				SoftwareMeanLatencyUs: 19.280606413130435,
				AreaMM2:               6.666396800000001,
				FaultedCalls:          8,
				RetryAttempts:         6,
				DegradedCalls:         5,
				ShedCalls:             44,
				Quarantines:           2,
				GoodputBytes:          5284236,
			},
		},
		{
			// Full cluster chaos, hedging at 2^17 cycles: the shape that
			// exercises every zero-value gate of the open-loop plane (priority
			// 0, QueueBound pass-through, order's active prefix, trackQueue).
			name: "cluster-400",
			cfg: Config{
				Seed: 7, Calls: 400, MaxCallBytes: 128 << 10, Pipelines: 2,
				Replicas:   3,
				Resilience: testPolicy(),
				Failover: cluster.FailoverPolicy{
					MaxFailovers:          3,
					FailoverPenaltyCycles: 2000,
					BreakerFailures:       3,
					BreakerWindow:         32,
					BreakerErrorRate:      0.5,
					BreakerOpenCycles:     2e5,
					BreakerHalfOpenProbes: 2,
					Hedge:                 true,
					HedgeDelayCycles:      1 << 17,
					CrashDetectCycles:     4000,
					RestartCycles:         50000,
				},
				Lifecycle: &fault.Lifecycle{Seed: 30, Rate: 0.2, EpochCalls: 64, MeanEventCalls: 24},
				Storm:     &fault.Storm{Seed: 1007, Rate: 0.02, MeanRepeats: 1},
				Traffic:   traffic.Pattern{},
			},
			want: Report{
				Calls:                 400,
				UncompressedBytes:     3494485,
				XeonCoresNeeded:       3.352253950297279,
				MeanLatencyUs:         32.851936179219905,
				P99LatencyUs:          310.74709375,
				CompUtil:              0.11764956997809577,
				DecompUtil:            0.162309874751907,
				SoftwareMeanLatencyUs: 13.655637315217403,
				AreaMM2:               39.0383808,
				FaultedCalls:          10,
				RetryAttempts:         7,
				DegradedCalls:         7,
				Quarantines:           2,
				GoodputBytes:          3494485,
				Failovers:             10,
				HedgedCalls:           4,
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
				t.Errorf("%s w=%d: zero-value traffic drifted from golden report:\n got %+v\nwant %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestOpenLoopWorkerInvariance: the open-loop replay — bursty diurnal
// arrivals, chaos storm, lifecycle weather, replica groups, hedging — is
// byte-identical at any worker count, and the engine path matches the
// retained legacy serial oracle.
func TestOpenLoopWorkerInvariance(t *testing.T) {
	base := Config{
		Seed: 11, Calls: 500, MaxCallBytes: 64 << 10, Pipelines: 2,
		Replicas:   2,
		Resilience: testPolicy(),
		Failover:   clusterPolicy(),
		Lifecycle:  &fault.Lifecycle{Seed: 55, Rate: 0.3, EpochCalls: 64, MeanEventCalls: 24},
		Storm:      &fault.Storm{Seed: 2011, Rate: 0.05, MeanRepeats: 1},
		Traffic: traffic.Pattern{
			CallsPerMcycle: 4000, Diurnal: []float64{1, 3},
			BurstFactor: 4, BurstOnCycles: 1e5, BurstOffCycles: 3e5,
		},
		Tenants: traffic.Tenants{ZipfS: 0.7},
		Workers: 1,
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for cl := range want.PerClass {
		total += want.PerClass[cl].Calls
	}
	if total != want.Calls {
		t.Fatalf("per-class calls %d do not cover the replay's %d", total, want.Calls)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: open-loop report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	oracle := base
	got, err := run(oracle, runLegacyReduction)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("engine open-loop report differs from legacy oracle:\n got %+v\nwant %+v", got, want)
	}
}

// TestOpenLoopShedCurve: no shedding at low utilization, then a monotone
// non-decreasing shed count as the offered rate climbs — the acceptance curve
// the openloop-sweep experiment plots — with the per-class rows always
// summing to the top-level totals.
func TestOpenLoopShedCurve(t *testing.T) {
	prevShed, prevViol := -1, 0
	for i, rate := range []float64{1000, 3000, 6000, 12000} {
		r, err := Run(openLoopConfig(rate))
		if err != nil {
			t.Fatalf("rate=%v: %v", rate, err)
		}
		if i == 0 && r.ShedCalls != 0 {
			t.Fatalf("rate=%v: %d calls shed at low utilization", rate, r.ShedCalls)
		}
		if i > 0 && r.ShedCalls <= prevShed {
			t.Fatalf("rate=%v: shed %d not increasing (prev %d)", rate, r.ShedCalls, prevShed)
		}
		if r.SLOViolations < prevViol {
			t.Fatalf("rate=%v: SLO violations %d decreased (prev %d)", rate, r.SLOViolations, prevViol)
		}
		prevShed, prevViol = r.ShedCalls, r.SLOViolations
		var cl ClassReport
		for c := range r.PerClass {
			cl.Calls += r.PerClass[c].Calls
			cl.ShedCalls += r.PerClass[c].ShedCalls
			cl.SLOViolations += r.PerClass[c].SLOViolations
			cl.GoodputBytes += r.PerClass[c].GoodputBytes
		}
		if cl.Calls != r.Calls || cl.ShedCalls != r.ShedCalls ||
			cl.SLOViolations != r.SLOViolations || cl.GoodputBytes != r.GoodputBytes {
			t.Fatalf("rate=%v: per-class rows do not sum to totals: %+v vs %+v", rate, cl, r)
		}
	}
}

// TestOpenLoopPrioritySheds: under overload, class-differentiated admission
// sheds bronze at a strictly higher rate than gold.
func TestOpenLoopPrioritySheds(t *testing.T) {
	r, err := Run(openLoopConfig(6000))
	if err != nil {
		t.Fatal(err)
	}
	gold, bronze := r.PerClass[0], r.PerClass[traffic.NumClasses-1]
	if gold.Calls == 0 || bronze.Calls == 0 {
		t.Fatalf("class population degenerate: %+v", r.PerClass)
	}
	if bronze.ShedCalls == 0 {
		t.Fatal("no bronze sheds under overload")
	}
	goldRate := float64(gold.ShedCalls) / float64(gold.Calls)
	bronzeRate := float64(bronze.ShedCalls) / float64(bronze.Calls)
	if goldRate >= bronzeRate {
		t.Fatalf("gold shed rate %.3f not below bronze %.3f: %+v", goldRate, bronzeRate, r.PerClass)
	}
}

// TestOpenLoopMetricsReconcile: the traffic.class* counter deltas across one
// Run equal the Report's per-class totals — the same reconciliation invariant
// the resil and cluster counters carry.
func TestOpenLoopMetricsReconcile(t *testing.T) {
	reg := obs.Default()
	var calls0, shed0, viol0, good0 [traffic.NumClasses]int64
	for c := 0; c < traffic.NumClasses; c++ {
		calls0[c] = metricClassCalls[c].Value()
		shed0[c] = metricClassShed[c].Value()
		viol0[c] = metricClassViol[c].Value()
		good0[c] = metricClassGoodput[c].Value()
	}
	r, err := Run(openLoopConfig(6000))
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < traffic.NumClasses; c++ {
		if d := metricClassCalls[c].Value() - calls0[c]; d != int64(r.PerClass[c].Calls) {
			t.Errorf("class %d calls counter delta %d != report %d", c, d, r.PerClass[c].Calls)
		}
		if d := metricClassShed[c].Value() - shed0[c]; d != int64(r.PerClass[c].ShedCalls) {
			t.Errorf("class %d shed counter delta %d != report %d", c, d, r.PerClass[c].ShedCalls)
		}
		if d := metricClassViol[c].Value() - viol0[c]; d != int64(r.PerClass[c].SLOViolations) {
			t.Errorf("class %d violation counter delta %d != report %d", c, d, r.PerClass[c].SLOViolations)
		}
		if d := metricClassGoodput[c].Value() - good0[c]; d != int64(r.PerClass[c].GoodputBytes) {
			t.Errorf("class %d goodput counter delta %d != report %d", c, d, r.PerClass[c].GoodputBytes)
		}
	}
	// The registry names are stable — dashboards key on them.
	if reg.Counter("traffic.class0.calls") != metricClassCalls[0] {
		t.Error("class counter not registered under its documented name")
	}
}

// TestOpenLoopAutoscale: under on/off bursts, the autoscaler both activates
// and drains replicas, and beats a fleet pinned at the scaler's minimum on
// shed count and tail latency.
func TestOpenLoopAutoscale(t *testing.T) {
	cfg := Config{
		Seed: 7, Calls: 1500, MaxCallBytes: 64 << 10, Pipelines: 2,
		Replicas:   3,
		Resilience: resil.Policy{MaxQueue: 32},
		Traffic: traffic.Pattern{
			CallsPerMcycle: 2000, BurstFactor: 6,
			BurstOnCycles: 2e5, BurstOffCycles: 8e5,
		},
		Tenants:   traffic.Tenants{ZipfS: 0.7},
		Autoscale: traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 6, DownQueueDepth: 2, CooldownCycles: 5e4},
		Workers:   2,
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.AutoscaleUps == 0 {
		t.Fatal("bursts never scaled any group up")
	}
	if r.AutoscaleDowns == 0 {
		t.Fatal("off-windows never scaled any group down")
	}
	pinned := cfg
	pinned.Autoscale = traffic.Autoscale{}
	pinned.Replicas = 1
	p, err := Run(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShedCalls >= p.ShedCalls {
		t.Fatalf("autoscaled shed %d not below pinned-minimum %d", r.ShedCalls, p.ShedCalls)
	}
	if r.P99LatencyUs >= p.P99LatencyUs {
		t.Fatalf("autoscaled P99 %.1f not below pinned-minimum %.1f", r.P99LatencyUs, p.P99LatencyUs)
	}
}
