package sim

import (
	"errors"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cdpu/internal/cluster"
	"cdpu/internal/des"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// prepareBase has a Storm and a Lifecycle, so a Run on it re-costs storm hits
// and brownout-range calls both.
func prepareBase() Config {
	return Config{
		Seed: 3, Calls: 96, MaxCallBytes: 16 << 10, Workers: 2,
		Resilience: testPolicy(),
		Storm:      &fault.Storm{Seed: 5, Rate: 0.1, MeanRepeats: 1},
		Replicas:   3,
		Failover:   clusterPolicy(),
		Lifecycle:  &fault.Lifecycle{Seed: 8, Rate: 0.3, EpochCalls: 16, MeanEventCalls: 8},
	}
}

// configFields places every Config field: keyed fields change what phases A
// and B compute, so Prepared.Run must refuse a change to one and name it; the
// rest are read by Run alone — the schedule, the re-cost of the calls a fault
// touches, phase C (Workers by nothing the Report depends on) — so
// Prepared.Run must accept a change and return what Run does. perturb moves
// the field off prepareBase to another valid config.
var configFields = map[string]struct {
	keyed   bool
	perturb func(*Config)
}{
	"Seed":         {true, func(c *Config) { c.Seed++ }},
	"Calls":        {true, func(c *Config) { c.Calls++ }},
	"MaxCallBytes": {true, func(c *Config) { c.MaxCallBytes = 8 << 10 }},
	"Placement":    {true, func(c *Config) { c.Placement = memsys.PCIeNoCache }},
	"Trace":        {true, func(c *Config) { c.Trace = obs.NewTrace(2) }},
	"Devices":      {false, func(c *Config) { c.Devices = 2 }},
	"Storm":        {false, func(c *Config) { c.Storm = &fault.Storm{Seed: 5, Rate: 0.2, MeanRepeats: 1} }},
	"Resilience":   {false, func(c *Config) { c.Resilience.MaxAttempts = 2 }},
	"Lifecycle":    {false, func(c *Config) { c.Lifecycle = &fault.Lifecycle{Seed: 9, Rate: 0.3, EpochCalls: 16, MeanEventCalls: 8} }},
	"Replicas":     {false, func(c *Config) { c.Replicas = 2 }},
	"OfferedGBps":  {false, func(c *Config) { c.OfferedGBps = 6 }},
	"Pipelines":    {false, func(c *Config) { c.Pipelines = 2 }},
	"Workers":      {false, func(c *Config) { c.Workers = 3 }},
	"Failover":     {false, func(c *Config) { c.Failover = cluster.FailoverPolicy{MaxFailovers: 1} }},
	"Contention":   {false, func(c *Config) { c.Contention = &des.Shared{StreamBytesPerCycle: 4, LLCBytes: 1 << 20} }},
	"EpochCycles":  {false, func(c *Config) { c.Contention, c.EpochCycles = &des.Shared{LinkOpsPerCycle: 0.001}, 1<<14 }},
	"Traffic":      {false, func(c *Config) { c.Traffic = traffic.Pattern{CallsPerMcycle: 4000, BurstFactor: 4} }},
	"Tenants":      {false, func(c *Config) { c.Traffic.CallsPerMcycle, c.Tenants = 4000, traffic.Tenants{N: 16, ZipfS: 1.2} }},
	"SLO": {false, func(c *Config) {
		c.Traffic.CallsPerMcycle, c.SLO = 4000, traffic.SLO{TargetUs: [traffic.NumClasses]float64{5, 20, 80}}
	}},
	"Autoscale": {false, func(c *Config) { c.Autoscale = traffic.Autoscale{UpQueueDepth: 2, CooldownCycles: 1e4} }},
	"Burn": {false, func(c *Config) {
		c.Traffic.CallsPerMcycle, c.Burn = 4000, traffic.BurnConfig{TopK: 4, FastWindowCycles: 1e5, SlowWindowCycles: 1e6}
	}},
}

// TestPrepareKeyCoversConfig walks sim.Config: a field placed nowhere fails
// until it is placed, the keyed ones are exactly prepareKey's fields, and each
// field behaves as placed.
func TestPrepareKeyCoversConfig(t *testing.T) {
	var keyed []string
	for i, typ := 0, reflect.TypeOf(prepareKey{}); i < typ.NumField(); i++ {
		keyed = append(keyed, typ.Field(i).Name)
	}
	p, err := Prepare(prepareBase())
	if err != nil {
		t.Fatal(err)
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		f, ok := configFields[name]
		if !ok {
			t.Errorf("Config.%s is neither in prepareKey nor read by Run alone: place it in configFields", name)
			continue
		}
		if f.keyed != slices.Contains(keyed, name) {
			t.Errorf("Config.%s: keyed=%v in configFields, but prepareKey disagrees", name, f.keyed)
		}
		cfg := prepareBase()
		f.perturb(&cfg)
		got, err := p.Run(cfg)
		if f.keyed {
			if !errors.Is(err, ErrNotPrepared) || !strings.HasSuffix(err.Error(), " "+name) {
				t.Errorf("perturbed Config.%s: Prepared.Run returned %v, want a refusal naming the field", name, err)
			}
			continue
		}
		want, wantErr := Run(cfg)
		if err != nil || wantErr != nil || *got != *want {
			t.Errorf("perturbed Config.%s: Prepared.Run = %+v, %v; Run = %+v, %v", name, got, err, want, wantErr)
		}
	}
	if len(configFields) != typ.NumField() {
		t.Errorf("configFields places %d fields, Config has %d", len(configFields), typ.NumField())
	}
}

// TestPreparedRunRepeatable: Runs on one Prepared, one after another and
// concurrently, return equal Reports and leave it as Prepare made it.
func TestPreparedRunRepeatable(t *testing.T) {
	for _, cfg := range []Config{prepareBase(), openLoopConfig(6000)} {
		p, err := Prepare(cfg)
		if err != nil {
			t.Fatal(err)
		}
		snapshot := *p
		snapshot.specs, snapshot.outs = slices.Clone(p.specs), slices.Clone(p.outs)
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reports := make([]*Report, 6)
		for i := range reports[:2] {
			if reports[i], err = p.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		errs := make([]error, len(reports))
		for i := 2; i < len(reports); i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				reports[i], errs[i] = p.Run(cfg)
			}()
		}
		wg.Wait()
		for i, r := range reports {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if *r != *want {
				t.Errorf("Run %d on one Prepared:\n got %+v\nwant %+v", i, r, want)
			}
		}
		if !reflect.DeepEqual(*p, snapshot) {
			t.Error("Prepared.Run modified the Prepared")
		}
	}
}

// TestPreparedRunCountersReconcile: each Run's sim, resil, traffic-class and
// cluster counter deltas equal its own Report, though phase B ran once for
// all Runs, and sim.recosted_calls moves by the calls the Run's faults touch:
// every storm hit, and every other call inside a brownout window of one of its
// own replica group's replicas. A Run with no fault schedule re-costs none.
func TestPreparedRunCountersReconcile(t *testing.T) {
	cfg := prepareBase()
	cfg.Traffic, cfg.Resilience.MaxQueue = traffic.Pattern{CallsPerMcycle: 4000}, 16
	reg := obs.Default()
	touched := func(c Config) (n int) {
		c = c.withDefaults()
		specs, _, _ := sampleCalls(c)
		sched, _, _ := schedule(specs, &c)
		for i, s := range sched {
			_, _, hit := c.Storm.Draw(i)
			for r := s.inst * c.Replicas; !hit && r < (s.inst+1)*c.Replicas; r++ {
				kind, sick := c.Lifecycle.State(r, i)
				hit = sick && kind == fault.LifeBrownout
			}
			if hit {
				n++
			}
		}
		return n
	}
	counters := map[string]func(*Report) int{
		"sim.calls":                    func(r *Report) int { return r.Calls },
		"resil.retries":                func(r *Report) int { return r.RetryAttempts },
		"resil.fallbacks":              func(r *Report) int { return r.DegradedCalls },
		"resil.quarantines":            func(r *Report) int { return r.Quarantines },
		"resil.sheds":                  func(r *Report) int { return r.ShedCalls },
		"cluster.failovers":            func(r *Report) int { return r.Failovers },
		"cluster.breaker_opens":        func(r *Report) int { return r.BreakerOpens },
		"traffic.class0.calls":         func(r *Report) int { return r.PerClass[0].Calls },
		"traffic.class2.shed":          func(r *Report) int { return r.PerClass[2].ShedCalls },
		"traffic.class1.goodput_bytes": func(r *Report) int { return r.PerClass[1].GoodputBytes },
	}
	p, err := Prepare(cfg)
	if err != nil {
		t.Fatal(err)
	}
	healthy := cfg
	healthy.Storm, healthy.Lifecycle = nil, nil
	for run, c := range []Config{cfg, cfg, healthy} {
		before := map[string]int64{}
		for name := range counters {
			before[name] = reg.Counter(name).Value()
		}
		n0, recosted0 := metricSimCallBytes.Count(), metricSimRecosted.Value()
		r, err := p.Run(c)
		if err != nil {
			t.Fatal(err)
		}
		if c.Storm != nil && (r.RetryAttempts == 0 || r.DegradedCalls == 0 || r.Failovers == 0 || r.ShedCalls == 0) {
			t.Fatalf("the run exercises too little: %+v", r)
		}
		for name, want := range counters {
			if d := reg.Counter(name).Value() - before[name]; d != int64(want(r)) {
				t.Errorf("Run %d: %s moved by %d, Report says %d", run, name, d, want(r))
			}
		}
		if n := metricSimCallBytes.Count() - n0; n != int64(r.Calls) {
			t.Errorf("Run %d: sim.call_bytes observed %d calls, Report says %d", run, n, r.Calls)
		}
		want := touched(c)
		if c.Storm != nil && (want == 0 || want == r.Calls) {
			t.Fatalf("the faults touch %d of %d calls; the count has no teeth", want, r.Calls)
		}
		if d := metricSimRecosted.Value() - recosted0; d != int64(want) {
			t.Errorf("Run %d: sim.recosted_calls moved by %d, the faults touch %d calls", run, d, want)
		}
	}
}

// FuzzPreparedRun prepares the healthy replay of two shapes — closed and open
// loop — and fuzzes what the key leaves out, the fault schedules included:
// Prepared.Run must equal Run exactly, the same Report or the same error, and
// an accepted Report holds no NaN, Inf or negative number. kinds selects the
// storm's kinds in its low three bits and the lifecycle's in the next three,
// an empty selection meaning all; a zero rate leaves the schedule off.
func FuzzPreparedRun(f *testing.F) {
	shapes := []Config{
		{Seed: 1, Calls: 64, MaxCallBytes: 8 << 10},
		{Seed: 2, Calls: 64, MaxCallBytes: 8 << 10, Traffic: traffic.Pattern{CallsPerMcycle: 3000}},
	}
	preps := make([]*Prepared, len(shapes))
	for i, c := range shapes {
		p, err := Prepare(c)
		if err != nil {
			f.Fatal(err)
		}
		preps[i] = p
	}
	f.Add(uint8(0), uint8(1), uint8(1), int16(0), int16(0), int16(0), 2.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
		int64(0), uint8(0), 0.0, 0.0, 0.0, int16(0), int16(0))
	f.Add(uint8(1), uint8(2), uint8(3), int16(16), int16(4), int16(1), 0.5, 3000.0, 2.0, 1.5, 10.0, 2e5, 0.001,
		int64(7), uint8(0o25), 0.1, 1.0, 0.3, int16(16), int16(8))
	f.Add(uint8(0), uint8(1), uint8(1), int16(32), int16(0), int16(3), 6.0, 0.0, 0.0, 0.0, 0.0, 0.0, 4.0,
		int64(4), uint8(0), 0.2, 1.0, 0.0, int16(0), int16(0))
	f.Add(uint8(1), uint8(2), uint8(2), int16(8), int16(2), int16(2), 1.0, 12000.0, 6.0, 0.0, 40.0, 1e5, 0.0,
		int64(6), uint8(0o40), 0.0, 0.0, 0.4, int16(16), int16(8))
	f.Fuzz(func(t *testing.T, shape, pipelines, replicas uint8, queue, up, k int16,
		gbps, rate, burst, deadline, target, window, budget float64,
		faultSeed int64, kinds uint8, stormRate, repeats, lifeRate float64, epoch, mean int16) {
		i := int(shape) % len(shapes)
		cfg := shapes[i]
		cfg.Workers = 2
		cfg.Pipelines = int(pipelines % 5)
		cfg.OfferedGBps = gbps
		cfg.Replicas = int(replicas % 5)
		cfg.Devices = int(replicas / 5 % 3)
		if stormRate != 0 {
			cfg.Storm = &fault.Storm{Seed: faultSeed, Rate: stormRate, MeanRepeats: repeats}
			for j, kind := range fault.StormKinds {
				if kinds>>j&1 != 0 {
					cfg.Storm.Kinds = append(cfg.Storm.Kinds, kind)
				}
			}
		}
		if lifeRate != 0 {
			cfg.Lifecycle = &fault.Lifecycle{Seed: faultSeed + 1, Rate: lifeRate, EpochCalls: int(epoch), MeanEventCalls: int(mean)}
			for j, kind := range fault.LifeKinds {
				if kinds>>(3+j)&1 != 0 {
					cfg.Lifecycle.Kinds = append(cfg.Lifecycle.Kinds, kind)
				}
			}
		}
		cfg.Resilience = resil.Policy{MaxAttempts: int(k % 4), BackoffBaseCycles: window / 8, BackoffMaxCycles: window, JitterFrac: 0.5,
			MaxQueue: int(queue), QuarantineK: int(k), QuarantineWindowCycles: window,
			QuarantinePenaltyCycles: window, SoftwareFallback: k%2 == 0, PriorityClasses: int(up), DeadlineFactor: deadline}
		cfg.Failover = cluster.FailoverPolicy{MaxFailovers: int(k), HedgeDelayCycles: window, BreakerFailures: int(up)}
		cfg.Autoscale = traffic.Autoscale{UpQueueDepth: int(up), DownQueueDepth: int(k), CooldownCycles: window}
		cfg.Traffic = traffic.Pattern{CallsPerMcycle: rate, BurstFactor: burst, BurstOnCycles: window, BurstOffCycles: 2 * window}
		cfg.SLO = traffic.SLO{TargetUs: [traffic.NumClasses]float64{target, 2 * target, 4 * target}}
		if queue%3 == 0 {
			cfg.Burn = traffic.BurnConfig{TopK: int(k), FastWindowCycles: window, SlowWindowCycles: 4 * window}
		}
		if budget != 0 {
			cfg.Contention, cfg.EpochCycles = &des.Shared{StreamBytesPerCycle: budget, LinkOpsPerCycle: budget / 100}, window
		}
		got, err := preps[i].Run(cfg)
		want, wantErr := Run(cfg)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("Prepared.Run error %v, Run error %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if *got != *want {
			t.Fatalf("Prepared.Run = %+v\n          Run = %+v", got, want)
		}
		checkFinite(t, reflect.ValueOf(*got), "Report")
	})
}

// checkFinite fails on a NaN, infinite or negative number anywhere in v.
func checkFinite(t *testing.T, v reflect.Value, path string) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			checkFinite(t, v.Field(i), path+"."+v.Type().Field(i).Name)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			checkFinite(t, v.Index(i), path)
		}
	case reflect.Int:
		if v.Int() < 0 {
			t.Errorf("%s = %d", path, v.Int())
		}
	case reflect.Float64:
		if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
			t.Errorf("%s = %v", path, f)
		}
	}
}
