package traffic

import (
	"math"
	"testing"
)

func TestPatternEnabled(t *testing.T) {
	if (Pattern{}).Enabled() {
		t.Fatal("zero Pattern must disable open-loop mode")
	}
	if !(Pattern{CallsPerMcycle: 10}).Enabled() {
		t.Fatal("non-zero rate must enable open-loop mode")
	}
}

func TestGenDeterminism(t *testing.T) {
	pat := Pattern{CallsPerMcycle: 50, Diurnal: []float64{1, 2, 0.5}, BurstFactor: 4}
	draw := func(seed int64) []Arrival {
		g := NewGen(pat, Tenants{}, SLO{}, seed)
		out := make([]Arrival, 500)
		for i := range out {
			out[i] = g.Next()
		}
		return out
	}
	a, b := draw(3), draw(3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d drifted across identical generators: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := draw(9)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("the replay seed did not decorrelate the stream")
	}
}

func TestGenArrivalsStrictlyIncreasingFinite(t *testing.T) {
	pats := []Pattern{
		{CallsPerMcycle: 100},
		{CallsPerMcycle: 5, Diurnal: []float64{0.2, 1, 3}},
		{CallsPerMcycle: 400, BurstFactor: 8, BurstOnCycles: 1e4, BurstOffCycles: 5e4},
	}
	for pi, pat := range pats {
		g := NewGen(pat, Tenants{N: 1000, ZipfS: 1.2}, SLO{}, int64(pi))
		prev := 0.0
		for i := 0; i < 5000; i++ {
			a := g.Next()
			if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At <= prev {
				t.Fatalf("pattern %d arrival %d: At %v after %v (want finite, strictly increasing)", pi, i, a.At, prev)
			}
			if a.Tenant < 1 || a.Tenant > 1000 {
				t.Fatalf("pattern %d arrival %d: tenant %d out of [1, 1000]", pi, i, a.Tenant)
			}
			if a.Class < 0 || a.Class >= NumClasses {
				t.Fatalf("pattern %d arrival %d: class %d", pi, i, a.Class)
			}
			prev = a.At
		}
	}
}

// TestGenMeanRate pins the flat-pattern empirical rate to the configured one:
// n arrivals should span about n/rate cycles.
func TestGenMeanRate(t *testing.T) {
	g := NewGen(Pattern{CallsPerMcycle: 100}, Tenants{}, SLO{}, 11)
	const n = 50000
	var last Arrival
	for i := 0; i < n; i++ {
		last = g.Next()
	}
	got := n / last.At * 1e6 // calls per Mcycle
	if got < 95 || got > 105 {
		t.Fatalf("empirical rate %.2f calls/Mcycle, want ~100", got)
	}
}

// TestGenDiurnalShape drives a two-segment curve and checks the per-segment
// arrival counts follow the segment weights.
func TestGenDiurnalShape(t *testing.T) {
	const period = diurnalPeriodCycles
	g := NewGen(Pattern{CallsPerMcycle: 1, Diurnal: []float64{1, 3}}, Tenants{}, SLO{}, 5)
	lo, hi := 0, 0
	for i := 0; i < 40000; i++ {
		a := g.Next()
		if math.Mod(a.At, period) < period/2 {
			lo++
		} else {
			hi++
		}
	}
	ratio := float64(hi) / float64(lo)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("diurnal hi/lo arrival ratio %.2f, want ~3", ratio)
	}
}

// TestGenBurstRate checks the on/off modulation lifts the mean rate by the
// duty-cycle-weighted factor: eff = (off + on*f) / (on + off).
func TestGenBurstRate(t *testing.T) {
	pat := Pattern{CallsPerMcycle: 100, BurstFactor: 10, BurstOnCycles: 2e5, BurstOffCycles: 8e5}
	g := NewGen(pat, Tenants{}, SLO{}, 13)
	const n = 60000
	var last Arrival
	for i := 0; i < n; i++ {
		last = g.Next()
	}
	got := n / last.At * 1e6
	want := 100 * (8e5 + 2e5*10) / (2e5 + 8e5) // 280
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("bursty empirical rate %.1f calls/Mcycle, want ~%.0f", got, want)
	}
}

func TestZipfRankBounds(t *testing.T) {
	for _, s := range []float64{0.5, 1.0, 1.1, 2.0} {
		ten := Tenants{N: 1 << 20, ZipfS: s}
		if r := ten.Rank(0); r != 1 {
			t.Fatalf("s=%v: Rank(0) = %d, want 1 (heaviest)", s, r)
		}
		if r := ten.Rank(math.Nextafter(1, 0)); r < 1 || r > 1<<20 {
			t.Fatalf("s=%v: Rank(1-) = %d out of range", s, r)
		}
		// Monotone in u: heavier ranks come first.
		prev := 0
		for _, u := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
			r := ten.Rank(u)
			if r < prev {
				t.Fatalf("s=%v: Rank not monotone in u (%d after %d)", s, r, prev)
			}
			prev = r
		}
	}
}

// TestZipfSkewConcentration pins the defining Zipf property: the call share
// of the top 1% of ranks grows with s.
func TestZipfSkewConcentration(t *testing.T) {
	share := func(s float64) float64 {
		ten := Tenants{N: 1 << 16, ZipfS: s}
		g := NewGen(Pattern{CallsPerMcycle: 100}, ten, SLO{}, 17)
		top := 0
		const n = 30000
		for i := 0; i < n; i++ {
			if g.Next().Tenant <= (1<<16)/100 {
				top++
			}
		}
		return float64(top) / n
	}
	prev := -1.0
	for _, s := range []float64{0.6, 1.0, 1.4} {
		sh := share(s)
		if sh <= prev {
			t.Fatalf("top-1%% share not increasing with s: %.3f at s=%v after %.3f", sh, s, prev)
		}
		prev = sh
	}
	if prev < 0.5 {
		t.Fatalf("s=1.4 top-1%% share %.3f, want majority concentration", prev)
	}
}

func TestSLOClassSplit(t *testing.T) {
	slo := SLO{}
	n := 1000
	if c := slo.Class(1, n); c != 0 {
		t.Fatalf("rank 1 class %d, want gold", c)
	}
	if c := slo.Class(10, n); c != 0 { // 1% boundary inclusive
		t.Fatalf("rank 10 class %d, want gold", c)
	}
	if c := slo.Class(11, n); c != 1 {
		t.Fatalf("rank 11 class %d, want silver", c)
	}
	if c := slo.Class(100, n); c != 1 { // 10% boundary inclusive
		t.Fatalf("rank 100 class %d, want silver", c)
	}
	if c := slo.Class(101, n); c != 2 {
		t.Fatalf("rank 101 class %d, want bronze", c)
	}
	if got := slo.TargetCycles(0); got != 25*2000 {
		t.Fatalf("gold target %v cycles, want 50000", got)
	}
	custom := SLO{TargetUs: [NumClasses]float64{10, 0, 0}}
	if got := custom.TargetUsFor(0); got != 10 {
		t.Fatalf("custom gold target %v, want 10", got)
	}
	if got := custom.TargetUsFor(1); got != 100 {
		t.Fatalf("defaulted silver target %v, want 100", got)
	}
}

func TestValidate(t *testing.T) {
	bad := []Pattern{
		{CallsPerMcycle: math.NaN()},
		{CallsPerMcycle: math.Inf(1)},
		{CallsPerMcycle: -3},
		{CallsPerMcycle: 10, Diurnal: []float64{1, -1}},
		{CallsPerMcycle: 10, Diurnal: []float64{1, math.NaN()}},
		{CallsPerMcycle: 10, Diurnal: []float64{0}},
		{CallsPerMcycle: 10, BurstFactor: math.NaN()},
		{CallsPerMcycle: 10, BurstFactor: 2, BurstOnCycles: -5},
		{CallsPerMcycle: 10, BurstFactor: 2, BurstOffCycles: math.NaN()},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad pattern %d validated: %+v", i, p)
		}
	}
	good := []Pattern{
		{},
		{CallsPerMcycle: 10},
		{CallsPerMcycle: 10, Diurnal: []float64{0.5, 2}, BurstFactor: 5},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("good pattern %d rejected: %v", i, err)
		}
	}
	if err := (Tenants{N: -1}).Validate(); err == nil {
		t.Error("negative tenant population validated")
	}
	if err := (Tenants{ZipfS: math.NaN()}).Validate(); err == nil {
		t.Error("NaN ZipfS validated")
	}
	if err := (SLO{TargetUs: [NumClasses]float64{0, -2, 0}}).Validate(); err == nil {
		t.Error("negative SLO target validated")
	}
	if err := (Autoscale{UpQueueDepth: 4, DownQueueDepth: 4}).Validate(); err == nil {
		t.Error("DownQueueDepth >= UpQueueDepth validated")
	}
	if err := (Autoscale{UpQueueDepth: 4, MinReplicas: -2}).Validate(); err == nil {
		t.Error("negative MinReplicas validated")
	}
	if err := (Autoscale{UpQueueDepth: 8, DownQueueDepth: 1}).Validate(); err != nil {
		t.Errorf("good autoscale rejected: %v", err)
	}
}

func TestAutoscaleDefaults(t *testing.T) {
	if (Autoscale{}).Enabled() {
		t.Fatal("zero Autoscale must be disabled")
	}
	a := Autoscale{UpQueueDepth: 8}
	if !a.Enabled() || a.Min() != 1 || a.Cooldown() != 2e6 {
		t.Fatalf("defaults: enabled=%v min=%d cooldown=%v", a.Enabled(), a.Min(), a.Cooldown())
	}
	b := Autoscale{UpBurn: 2}
	if !b.Enabled() || !b.BurnDriven() || b.BurnWindow() != 2e6 {
		t.Fatalf("burn defaults: enabled=%v burn=%v window=%v",
			b.Enabled(), b.BurnDriven(), b.BurnWindow())
	}
	if a.BurnDriven() {
		t.Fatal("queue-depth mode must not report burn-driven")
	}
}

// TestAutoscaleValidate is the table the validation-guard satellite pins:
// inverted thresholds, non-positive cooldowns and NaN/Inf burn thresholds
// were silently accepted before; every one must now be rejected by name.
func TestAutoscaleValidate(t *testing.T) {
	cases := []struct {
		name string
		a    Autoscale
		ok   bool
	}{
		{"zero", Autoscale{}, true},
		{"queue mode", Autoscale{UpQueueDepth: 8, DownQueueDepth: 2}, true},
		{"burn mode", Autoscale{UpBurn: 4, DownBurn: 0.5}, true},
		{"burn mode full", Autoscale{UpBurn: 4, DownBurn: 1, BurnWindowCycles: 1e6, CooldownCycles: 1e5}, true},
		{"down == up depth", Autoscale{UpQueueDepth: 4, DownQueueDepth: 4}, false},
		{"down > up depth", Autoscale{UpQueueDepth: 4, DownQueueDepth: 9}, false},
		{"negative up depth", Autoscale{UpQueueDepth: -1}, false},
		{"negative min replicas", Autoscale{UpQueueDepth: 4, MinReplicas: -2}, false},
		{"negative cooldown", Autoscale{UpQueueDepth: 4, CooldownCycles: -1}, false},
		{"NaN cooldown", Autoscale{UpQueueDepth: 4, CooldownCycles: math.NaN()}, false},
		{"Inf cooldown", Autoscale{UpQueueDepth: 4, CooldownCycles: math.Inf(1)}, false},
		{"NaN up burn", Autoscale{UpBurn: math.NaN()}, false},
		{"Inf up burn", Autoscale{UpBurn: math.Inf(1)}, false},
		{"negative up burn", Autoscale{UpBurn: -2}, false},
		{"NaN down burn", Autoscale{UpBurn: 4, DownBurn: math.NaN()}, false},
		{"down burn >= up burn", Autoscale{UpBurn: 4, DownBurn: 4}, false},
		{"negative down burn", Autoscale{UpBurn: 4, DownBurn: -1}, false},
		{"both trigger modes", Autoscale{UpQueueDepth: 4, UpBurn: 4}, false},
		{"NaN burn window", Autoscale{UpBurn: 4, BurnWindowCycles: math.NaN()}, false},
		{"burn knobs without up burn", Autoscale{UpQueueDepth: 4, DownBurn: 1}, false},
	}
	for _, tc := range cases {
		err := tc.a.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validated: %+v", tc.name, tc.a)
		}
	}
}

// TestGenFlashFactorOneBitIdentical pins the flash gate the bit-compat
// contract hangs on: FlashFactor 1 (like 0) must draw nothing from the
// stream, so the arrival sequence is byte-identical to a flash-free pattern.
func TestGenFlashFactorOneBitIdentical(t *testing.T) {
	base := Pattern{CallsPerMcycle: 80, BurstFactor: 4, Diurnal: []float64{1, 2}}
	flash := base
	flash.FlashFactor = 1
	flash.FlashOnCycles = 1e5
	flash.FlashRankFrac = 0.5
	ga := NewGen(base, Tenants{N: 5000}, SLO{}, 21)
	gb := NewGen(flash, Tenants{N: 5000}, SLO{}, 21)
	for i := 0; i < 2000; i++ {
		a, b := ga.Next(), gb.Next()
		if a != b {
			t.Fatalf("arrival %d drifted with FlashFactor=1: %+v vs %+v", i, a, b)
		}
	}
}

// TestGenFlashValidStream checks flash crowds keep every generator invariant:
// finite strictly increasing arrivals, in-range tenants, and determinism.
func TestGenFlashValidStream(t *testing.T) {
	pat := Pattern{
		CallsPerMcycle: 200, BurstFactor: 3,
		FlashFactor: 25, FlashOnCycles: 2e5, FlashOffCycles: 1e6, FlashRankFrac: 0.02,
	}
	draw := func() []Arrival {
		g := NewGen(pat, Tenants{N: 20000, ZipfS: 0.9}, SLO{}, 31)
		out := make([]Arrival, 8000)
		prev := 0.0
		for i := range out {
			a := g.Next()
			if math.IsNaN(a.At) || math.IsInf(a.At, 0) || a.At <= prev {
				t.Fatalf("arrival %d: At %v after %v", i, a.At, prev)
			}
			if a.Tenant < 1 || a.Tenant > 20000 {
				t.Fatalf("arrival %d: tenant %d out of range", i, a.Tenant)
			}
			prev = a.At
			out[i] = a
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flash stream not deterministic at arrival %d", i)
		}
	}
}

// TestGenFlashRateLift pins the rate model with the band spanning the whole
// population (FlashRankFrac 1, mass 1): the effective rate is the duty-cycled
// factor, exactly as for bursts.
func TestGenFlashRateLift(t *testing.T) {
	pat := Pattern{CallsPerMcycle: 100, FlashFactor: 10, FlashOnCycles: 2e5, FlashOffCycles: 8e5, FlashRankFrac: 1}
	g := NewGen(pat, Tenants{}, SLO{}, 13)
	const n = 60000
	var last Arrival
	for i := 0; i < n; i++ {
		last = g.Next()
	}
	got := n / last.At * 1e6
	want := 100 * (8e5 + 2e5*10) / (2e5 + 8e5) // 280
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("flash empirical rate %.1f calls/Mcycle, want ~%.0f", got, want)
	}
}

// TestGenFlashHotKeyConcentration checks the correlated-demand property the
// model exists for: during flash windows the sampled band's tenants arrive
// FlashFactor times as often, so the flashed stream concentrates more calls
// per unit time than the calm stream while leaving the calm windows alone.
func TestGenFlashHotKeyConcentration(t *testing.T) {
	base := Pattern{CallsPerMcycle: 50}
	flash := base
	flash.FlashFactor = 40
	flash.FlashOnCycles = 5e5
	flash.FlashOffCycles = 2e6
	flash.FlashRankFrac = 0.05
	const n = 40000
	end := func(p Pattern) float64 {
		g := NewGen(p, Tenants{N: 4000, ZipfS: 0.8}, SLO{}, 41)
		var last Arrival
		for i := 0; i < n; i++ {
			last = g.Next()
		}
		return last.At
	}
	calm, hot := end(base), end(flash)
	if hot >= calm {
		t.Fatalf("flash crowd did not add demand: %.0f cycles flashed vs %.0f calm", hot, calm)
	}
}

// TestTenantsCDFInvertsRank pins the cdf/Rank inverse pair the flash band
// sampler depends on: a draw just above cdf(k) lands on rank k.
func TestTenantsCDFInvertsRank(t *testing.T) {
	for _, s := range []float64{0.7, 1.0, 1.3} {
		ten := Tenants{N: 100000, ZipfS: s}
		if got := ten.cdf(1); got != 0 {
			t.Fatalf("s=%v: cdf(1) = %v, want 0", s, got)
		}
		if got := ten.cdf(100000); got != 1 {
			t.Fatalf("s=%v: cdf(n) = %v, want 1", s, got)
		}
		for _, k := range []float64{2, 10, 500, 40000} {
			u := ten.cdf(k)
			if r := ten.Rank(u * 1.0000001); r < int(k) || r > int(k)+1 {
				t.Fatalf("s=%v: Rank(cdf(%v)+) = %d, want ~%v", s, k, r, k)
			}
		}
	}
}

// TestGenTiltShape drives the tilt transform directly: the hot band receives
// exactly its tilted share of a uniform grid, every output stays in [0, 1),
// and the map is monotone within each piece.
func TestGenTiltShape(t *testing.T) {
	g := NewGen(Pattern{CallsPerMcycle: 1, FlashFactor: 8}, Tenants{N: 1000, ZipfS: 0.9}, SLO{}, 1)
	g.flashLo, g.flashHi = 0.2, 0.3
	m := g.flashHi - g.flashLo
	g.flashBoost = 1 - m + m*8
	g.flashHot = m * 8 / g.flashBoost
	const grid = 100000
	inBand := 0
	for i := 0; i < grid; i++ {
		u := (float64(i) + 0.5) / grid
		v := g.tilt(u)
		if v < 0 || v >= 1 {
			t.Fatalf("tilt(%v) = %v out of [0, 1)", u, v)
		}
		if v >= g.flashLo && v < g.flashHi {
			inBand++
		}
	}
	got := float64(inBand) / grid
	if math.Abs(got-g.flashHot) > 0.001 {
		t.Fatalf("band share %.4f, want %.4f", got, g.flashHot)
	}
}
