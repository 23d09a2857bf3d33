// Package traffic is the open-loop arrival layer of the fleet replay: the
// paper's hyperscale framing is millions of users offering traffic at a rate
// the CDPUs do not control, so arrivals here come from a seeded
// modulated-Poisson process — a piecewise-constant diurnal curve times an
// on/off burst modulation — instead of being spaced to match a fixed offered
// bandwidth. Each arrival is attributed to a tenant drawn from a Zipf-skewed
// population (rank-frequency law, millions of tenants sampled in O(1) by
// inverse transform) and to the SLO class its tenant rank maps to.
//
// Everything is a pure function of (replay seed, draw index):
// the generator is consumed in the replay's serial sampling phase, so open-loop
// Reports stay byte-identical at any worker count. The package is a leaf —
// internal/sim, internal/cluster and the experiment harness all import it.
package traffic

import (
	"fmt"
	"math"
	"slices"

	"cdpu/internal/memsys"
	"cdpu/internal/prng"
)

// NumClasses is the fixed SLO class count: 0 = gold (highest priority),
// 1 = silver, 2 = bronze. Fixed so per-class counters embed in comparable
// structs (sim.Report is compared with != across the determinism tests).
const NumClasses = 3

// Pattern describes the open-loop offered-rate curve. The zero value disables
// open-loop mode entirely (the replay keeps its closed, pre-sampled arrival
// schedule).
type Pattern struct {
	// CallsPerMcycle is the base arrival rate in calls per million device
	// cycles (at memsys.DeviceGHz 1 Mcycle = 0.5 ms, so 100 calls/Mcycle =
	// 200k calls/s).
	// 0 disables the open-loop generator.
	CallsPerMcycle float64
	// Diurnal scales the base rate through piecewise-constant segments spread
	// evenly over diurnalPeriodCycles, cycling forever (nil/empty = flat).
	// Every segment must be finite and positive.
	Diurnal []float64
	// BurstFactor multiplies the rate while the on/off modulation is in an
	// on-window (0 or 1 = no burst modulation).
	BurstFactor float64
	// BurstOnCycles / BurstOffCycles are the mean lengths of the seeded
	// exponential on/off windows (0 = 1e6 / 9e6: bursts ~10% of the time).
	BurstOnCycles  float64
	BurstOffCycles float64
	// FlashFactor enables seeded flash-crowd events: during a flash window a
	// sampled band of tenant ranks multiplies its arrival rate by this factor
	// — hot-key correlated demand, as opposed to the rank-blind burst
	// modulation above. The band is re-sampled at each window start, the
	// total rate scales by the band's Zipf mass times the factor, and tenant
	// draws inside the window tilt toward the band with exactly the same
	// per-arrival draw count as calm traffic. 0 or 1 disables flash crowds
	// (and, like every other knob here, draws nothing from the stream).
	FlashFactor float64
	// FlashOnCycles / FlashOffCycles are the mean lengths of the seeded
	// exponential flash on/off windows (0 = 2e6 / 38e6: flashes ~5% of the
	// time, each ~1 ms of modeled time).
	FlashOnCycles  float64
	FlashOffCycles float64
	// FlashRankFrac is the fraction of the tenant-rank space each flash's hot
	// band covers; the band's start rank is sampled uniformly per window
	// (0 = 0.001 — a thousandth of the population goes hot at once).
	FlashRankFrac float64
}

// diurnalPeriodCycles is the diurnal period: 100 ms of modeled time, a
// compressed "day" so test-scale replays span several periods.
const diurnalPeriodCycles = 200e6

// Enabled reports whether the pattern switches the replay to open-loop
// arrivals. It is the gate the bit-compat contract hangs on: a zero Pattern
// must leave the closed-loop engine untouched.
func (p Pattern) Enabled() bool { return p.CallsPerMcycle != 0 }

func (p Pattern) burstOn() float64 {
	if p.BurstOnCycles == 0 {
		return 1e6
	}
	return p.BurstOnCycles
}

func (p Pattern) burstOff() float64 {
	if p.BurstOffCycles == 0 {
		return 9e6
	}
	return p.BurstOffCycles
}

func (p Pattern) burstEnabled() bool { return p.BurstFactor != 0 && p.BurstFactor != 1 }

func (p Pattern) flashOn() float64 {
	if p.FlashOnCycles == 0 {
		return 2e6
	}
	return p.FlashOnCycles
}

func (p Pattern) flashOff() float64 {
	if p.FlashOffCycles == 0 {
		return 38e6
	}
	return p.FlashOffCycles
}

func (p Pattern) flashRankFrac() float64 {
	if p.FlashRankFrac == 0 {
		return 0.001
	}
	return p.FlashRankFrac
}

func (p Pattern) flashEnabled() bool { return p.FlashFactor != 0 && p.FlashFactor != 1 }

// Validate rejects patterns whose rate curve would produce NaN, infinite,
// zero-rate or negative arrival spacing — the open-loop counterpart of the
// OfferedGBps guard on the closed-loop clock.
func (p Pattern) Validate() error {
	if !p.Enabled() {
		return nil
	}
	if !finitePos(p.CallsPerMcycle) {
		return fmt.Errorf("traffic: CallsPerMcycle %v (want finite, positive)", p.CallsPerMcycle)
	}
	for i, d := range p.Diurnal {
		if !finitePos(d) {
			return fmt.Errorf("traffic: Diurnal[%d] = %v (want finite, positive)", i, d)
		}
	}
	if p.BurstFactor != 0 && !finitePos(p.BurstFactor) {
		return fmt.Errorf("traffic: BurstFactor %v (want finite, positive)", p.BurstFactor)
	}
	if p.BurstOnCycles != 0 && !finitePos(p.BurstOnCycles) {
		return fmt.Errorf("traffic: BurstOnCycles %v (want finite, positive)", p.BurstOnCycles)
	}
	if p.BurstOffCycles != 0 && !finitePos(p.BurstOffCycles) {
		return fmt.Errorf("traffic: BurstOffCycles %v (want finite, positive)", p.BurstOffCycles)
	}
	if p.FlashFactor != 0 && !finitePos(p.FlashFactor) {
		return fmt.Errorf("traffic: FlashFactor %v (want finite, positive)", p.FlashFactor)
	}
	if p.FlashOnCycles != 0 && !finitePos(p.FlashOnCycles) {
		return fmt.Errorf("traffic: FlashOnCycles %v (want finite, positive)", p.FlashOnCycles)
	}
	if p.FlashOffCycles != 0 && !finitePos(p.FlashOffCycles) {
		return fmt.Errorf("traffic: FlashOffCycles %v (want finite, positive)", p.FlashOffCycles)
	}
	if p.FlashRankFrac != 0 && (!finitePos(p.FlashRankFrac) || p.FlashRankFrac > 1) {
		return fmt.Errorf("traffic: FlashRankFrac %v (want in (0, 1])", p.FlashRankFrac)
	}
	// Each on/off window flip costs the generator one draw, so a burst or
	// flash period that holds almost no arrivals at the curve's slowest rate
	// costs many draws per arrival, and shapes nothing an arrival can see.
	lowest := p.CallsPerMcycle / 1e6
	if len(p.Diurnal) > 0 {
		lowest *= slices.Min(p.Diurnal)
	}
	if p.burstEnabled() {
		lowest *= min(1, p.BurstFactor)
	}
	if p.flashEnabled() {
		lowest *= min(1, p.FlashFactor)
	}
	if n := (p.burstOn() + p.burstOff()) * lowest; p.burstEnabled() && n < minArrivalsPerPeriod {
		return fmt.Errorf("traffic: BurstOnCycles + BurstOffCycles hold %.3g arrivals at the slowest rate (want at least %g)", n, minArrivalsPerPeriod)
	}
	if n := (p.flashOn() + p.flashOff()) * lowest; p.flashEnabled() && n < minArrivalsPerPeriod {
		return fmt.Errorf("traffic: FlashOnCycles + FlashOffCycles hold %.3g arrivals at the slowest rate (want at least %g)", n, minArrivalsPerPeriod)
	}
	return nil
}

// minArrivalsPerPeriod bounds the generator's window draws at a thousand per
// arrival.
const minArrivalsPerPeriod = 1e-3

func finitePos(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Tenants describes the Zipf-skewed tenant population.
type Tenants struct {
	// N is the tenant population size (0 = 1<<20, about a million tenants).
	N int
	// ZipfS is the rank-frequency skew exponent s — P(rank) ∝ rank^-s over
	// ranks 1..N (0 = 1.1, a realistic multi-tenant skew; larger = heavier
	// concentration on the top tenants).
	ZipfS float64
}

func (t Tenants) n() int {
	if t.N == 0 {
		return 1 << 20
	}
	return t.N
}

func (t Tenants) s() float64 {
	if t.ZipfS == 0 {
		return 1.1
	}
	return t.ZipfS
}

// Validate rejects populations the sampler cannot invert.
func (t Tenants) Validate() error {
	if t.N < 0 {
		return fmt.Errorf("traffic: Tenants.N %d (want non-negative)", t.N)
	}
	if t.ZipfS != 0 && !finitePos(t.ZipfS) {
		return fmt.Errorf("traffic: Tenants.ZipfS %v (want finite, positive)", t.ZipfS)
	}
	return nil
}

// Rank maps one uniform draw u ∈ [0, 1) to a tenant rank in [1, N] under the
// bounded continuous power law with exponent s — the O(1) inverse-transform
// approximation of Zipf sampling that needs no N-entry table, so
// million-tenant populations cost the same as ten-tenant ones. Rank 1 is the
// heaviest tenant.
func (t Tenants) Rank(u float64) int {
	n := float64(t.n())
	s := t.s()
	var x float64
	if math.Abs(s-1) < 1e-9 {
		// s = 1: the inverse CDF degenerates to n^u.
		x = math.Pow(n, u)
	} else {
		x = math.Pow((math.Pow(n, 1-s)-1)*u+1, 1/(1-s))
	}
	r := int(x)
	if r < 1 {
		r = 1
	}
	if r > t.n() {
		r = t.n()
	}
	return r
}

// cdf is the inverse of the transform in Rank: the probability mass the
// bounded power law places below rank value x, so a uniform draw u lands in
// ranks [a, b) exactly when u ∈ [cdf(a), cdf(b)). The flash-crowd sampler
// uses it to express a rank band as an interval of the uniform draw space.
func (t Tenants) cdf(x float64) float64 {
	n := float64(t.n())
	if x <= 1 {
		return 0
	}
	if x >= n {
		return 1
	}
	s := t.s()
	if math.Abs(s-1) < 1e-9 {
		return math.Log(x) / math.Log(n)
	}
	return (math.Pow(x, 1-s) - 1) / (math.Pow(n, 1-s) - 1)
}

// SLO maps tenant ranks to service classes and carries the per-class latency
// targets the replay scores violations against.
type SLO struct {
	// TargetUs holds the per-class served-latency targets in microseconds;
	// zero entries default to {25, 100, 400} (gold, silver, bronze).
	TargetUs [NumClasses]float64
}

var defaultTargetUs = [NumClasses]float64{25, 100, 400}

// goldTenantFrac / silverTenantFrac split the tenant ranks, heaviest first,
// into classes: ranks in the first 1% of the population are gold, the next 9%
// silver, the rest bronze. Under Zipf skew the small gold rank set carries a
// large call share — the hyperscale shape. Typed, so the silver boundary
// (their sum) rounds as float64 addition does, not as an exact constant.
const (
	goldTenantFrac   float64 = 0.01
	silverTenantFrac float64 = 0.09
)

// TargetUsFor returns class c's latency target in microseconds, defaults
// applied.
func (s SLO) TargetUsFor(c int) float64 {
	if s.TargetUs[c] != 0 {
		return s.TargetUs[c]
	}
	return defaultTargetUs[c]
}

// TargetCycles returns class c's latency target in device cycles.
func (s SLO) TargetCycles(c int) float64 { return s.TargetUsFor(c) * (memsys.DeviceGHz * 1e3) }

// Class returns the SLO class of a tenant rank within a population of n. The
// fraction boundaries are rounded to whole ranks, so a 1%/9% split of 1000
// tenants is exactly ranks 1-10 gold and 11-100 silver.
func (s SLO) Class(rank, n int) int {
	if rank <= int(goldTenantFrac*float64(n)+0.5) {
		return 0
	}
	if rank <= int((goldTenantFrac+silverTenantFrac)*float64(n)+0.5) {
		return 1
	}
	return 2
}

// Validate rejects targets the scorer cannot use.
func (s SLO) Validate() error {
	for c, t := range s.TargetUs {
		if t != 0 && !finitePos(t) {
			return fmt.Errorf("traffic: SLO.TargetUs[%d] = %v (want finite, positive)", c, t)
		}
	}
	return nil
}

// Autoscale is the queue-depth replica-scaling policy a cluster replica group
// applies on the modeled clock: scale up (activating a drained replica
// through the warm-restart lifecycle charge) when the admission queue
// reaches UpQueueDepth, drain the highest active replica back down when the
// queue falls to DownQueueDepth, with a cooldown between actions. The zero
// value disables autoscaling (every deployed replica stays active).
type Autoscale struct {
	// MinReplicas is the active-replica floor the group starts at and never
	// drains below (0 = 1). The ceiling is the group's deployed replica
	// count.
	MinReplicas int
	// UpQueueDepth is the admission-queue depth that activates another
	// replica; 0 disables autoscaling entirely.
	UpQueueDepth int
	// DownQueueDepth is the depth at or below which the highest active
	// replica is drained (default 0 = drain only when the queue is empty).
	DownQueueDepth int
	// CooldownCycles is the minimum modeled time between scaling actions
	// (0 = 2e6 cycles, 1 ms), damping oscillation around the thresholds.
	CooldownCycles float64
	// UpBurn switches the scaler from queue depth to SLO burn: a fast-window
	// burn rate (bad-call fraction over ErrorBudgetFrac, measured over
	// BurnWindowCycles at arrival instants) at or above UpBurn activates the
	// next replica; sustained burn at or below DownBurn drains one. Mutually
	// exclusive with UpQueueDepth; 0 keeps the queue-depth mode.
	UpBurn   float64
	DownBurn float64
	// BurnWindowCycles is the rolling window the scaler's burn rate is
	// measured over (0 = 2e6 cycles, 1 ms of modeled time).
	BurnWindowCycles float64
}

// Enabled reports whether the policy scales at all, in either mode.
func (a Autoscale) Enabled() bool { return a.UpQueueDepth > 0 || a.UpBurn > 0 }

// BurnDriven reports whether the scaler acts on SLO burn instead of queue
// depth.
func (a Autoscale) BurnDriven() bool { return a.UpBurn > 0 }

// BurnWindow returns the burn measurement window in cycles, defaults applied.
func (a Autoscale) BurnWindow() float64 {
	if a.BurnWindowCycles == 0 {
		return 2e6
	}
	return a.BurnWindowCycles
}

// Min returns the active-replica floor, defaults applied.
func (a Autoscale) Min() int {
	if a.MinReplicas <= 0 {
		return 1
	}
	return a.MinReplicas
}

// Cooldown returns the inter-action cooldown in cycles, defaults applied.
func (a Autoscale) Cooldown() float64 {
	if a.CooldownCycles == 0 {
		return 2e6
	}
	return a.CooldownCycles
}

// Validate rejects thresholds the scaler cannot act on: inverted Down >= Up
// pairs, non-positive or non-finite cooldowns, NaN/Inf burn thresholds, and
// mixing the two trigger modes. A scaler configured so would never (or
// always) act.
func (a Autoscale) Validate() error {
	if !a.Enabled() {
		if a.UpQueueDepth < 0 {
			return fmt.Errorf("traffic: Autoscale.UpQueueDepth %d (want non-negative)", a.UpQueueDepth)
		}
		if a.UpBurn != 0 {
			return fmt.Errorf("traffic: Autoscale.UpBurn %v (want finite, positive)", a.UpBurn)
		}
		return nil
	}
	if a.MinReplicas < 0 {
		return fmt.Errorf("traffic: Autoscale.MinReplicas %d (want non-negative)", a.MinReplicas)
	}
	if a.CooldownCycles != 0 && !finitePos(a.CooldownCycles) {
		return fmt.Errorf("traffic: Autoscale.CooldownCycles %v (want finite, positive)", a.CooldownCycles)
	}
	if a.BurnDriven() {
		if a.UpQueueDepth > 0 {
			return fmt.Errorf("traffic: Autoscale.UpQueueDepth %d and UpBurn %v both set (pick one trigger mode)", a.UpQueueDepth, a.UpBurn)
		}
		if !finitePos(a.UpBurn) {
			return fmt.Errorf("traffic: Autoscale.UpBurn %v (want finite, positive)", a.UpBurn)
		}
		if math.IsNaN(a.DownBurn) || math.IsInf(a.DownBurn, 0) || a.DownBurn < 0 || a.DownBurn >= a.UpBurn {
			return fmt.Errorf("traffic: Autoscale.DownBurn %v (want finite, in [0, UpBurn))", a.DownBurn)
		}
		if a.BurnWindowCycles != 0 && !finitePos(a.BurnWindowCycles) {
			return fmt.Errorf("traffic: Autoscale.BurnWindowCycles %v (want finite, positive)", a.BurnWindowCycles)
		}
		return nil
	}
	if a.DownQueueDepth < 0 || a.DownQueueDepth >= a.UpQueueDepth {
		return fmt.Errorf("traffic: Autoscale.DownQueueDepth %d (want in [0, UpQueueDepth))", a.DownQueueDepth)
	}
	if a.DownBurn != 0 || a.BurnWindowCycles != 0 {
		return fmt.Errorf("traffic: Autoscale burn knobs set without UpBurn")
	}
	return nil
}

// Arrival is one open-loop arrival: its time on the modeled clock, the tenant
// rank that offered it, and the tenant's SLO class.
type Arrival struct {
	At     float64
	Tenant int
	Class  int
}

// genSalt decorrelates the generator's stream from every other per-call
// stream (payload, storm, backoff, lifecycle).
const genSalt = 0x0f72a9f1c4a11e75

// Gen is the seeded open-loop arrival generator. It is stateful and serial by
// design — like the fleet model's call sampler, it is consumed in the
// replay's single-threaded sampling phase, and determinism comes from the
// whole sequence being a pure function of the seeds.
type Gen struct {
	pat Pattern
	ten Tenants
	slo SLO

	rng   prng.Stream
	clock float64
	// On/off burst modulation, advanced lazily on the arrival clock.
	burstOn    bool
	burstUntil float64
	// Flash-crowd modulation: during an on-window the sampled rank band
	// [flashLo, flashHi) of the uniform draw space multiplies its rate by
	// FlashFactor. flashBoost is the resulting total-rate multiplier
	// (1 - m + m·F for band mass m); flashHot is the band's tilted share of
	// the tenant draw space (m·F / flashBoost).
	flashOn    bool
	flashUntil float64
	flashLo    float64
	flashHi    float64
	flashHot   float64
	flashBoost float64
}

// NewGen builds a generator for one replay, keyed on the replay seed. The
// inputs are assumed validated (sim.Config.validate rejects bad curves before
// sampling starts).
func NewGen(pat Pattern, ten Tenants, slo SLO, seed int64) *Gen {
	return &Gen{
		pat: pat,
		ten: ten,
		slo: slo,
		// The lazy window loops toggle before drawing, so starting "on"
		// makes the first drawn window an off-window: traffic begins calm.
		burstOn: true,
		flashOn: true,
		rng:     prng.New(uint64(seed) ^ genSalt),
	}
}

// exp draws a unit-mean exponential. 1-u is in (0, 1], so the draw is finite
// and positive.
func (g *Gen) exp() float64 { return -math.Log(1 - g.rng.Float64()) }

// rate evaluates the arrival rate in calls per cycle at a clock instant:
// base × diurnal segment × burst multiplier.
func (g *Gen) rate(at float64) float64 {
	lam := g.pat.CallsPerMcycle / 1e6
	if len(g.pat.Diurnal) > 0 {
		seg := int(math.Mod(at, diurnalPeriodCycles) / diurnalPeriodCycles * float64(len(g.pat.Diurnal)))
		if seg >= len(g.pat.Diurnal) { // at exactly a period boundary
			seg = len(g.pat.Diurnal) - 1
		}
		lam *= g.pat.Diurnal[seg]
	}
	if g.pat.burstEnabled() && g.burstOn {
		lam *= g.pat.BurstFactor
	}
	if g.pat.flashEnabled() && g.flashOn {
		lam *= g.flashBoost
	}
	return lam
}

// sampleFlashBand draws one flash window's hot band: a FlashRankFrac-wide
// slice of the rank space starting at a uniformly sampled rank, mapped into
// the uniform draw space through the Zipf CDF. A band over the head ranks
// carries far more mass — and therefore boosts the total rate far more — than
// the same width over the tail, which is exactly the hot-key asymmetry flash
// crowds are meant to model.
func (g *Gen) sampleFlashBand() {
	n := float64(g.ten.n())
	w := g.pat.flashRankFrac() * n
	if w < 1 {
		w = 1
	}
	lo := 1 + g.rng.Float64()*math.Max(0, n-w)
	g.flashLo = g.ten.cdf(lo)
	g.flashHi = g.ten.cdf(lo + w)
	m := g.flashHi - g.flashLo
	g.flashBoost = 1 - m + m*g.pat.FlashFactor
	g.flashHot = m * g.pat.FlashFactor / g.flashBoost
}

// tilt reshapes one uniform tenant draw for an in-flash arrival: the hot band
// [flashLo, flashHi) receives flashHot of the draw space (its mass times the
// flash factor, renormalized) and the complement shares the rest, so band
// tenants arrive FlashFactor times as often while the conditional rank
// distribution inside and outside the band is unchanged. One draw in, one
// value out — the per-arrival draw count never depends on flash state.
func (g *Gen) tilt(u float64) float64 {
	m := g.flashHi - g.flashLo
	if m <= 0 || m >= 1 || g.flashHot <= 0 {
		return u
	}
	if u < g.flashHot {
		return g.flashLo + u/g.flashHot*m
	}
	v := (u - g.flashHot) / (1 - g.flashHot) * (1 - m)
	if v < g.flashLo {
		return v
	}
	return v + m
}

// Next draws the next arrival. Arrival times are strictly increasing and
// finite; the modulated-Poisson inter-arrival is drawn at the rate in effect
// at the previous arrival instant (piecewise curves change slowly relative to
// arrival spacing, so the boundary approximation is deliberate and keeps the
// draw count per arrival fixed).
func (g *Gen) Next() Arrival {
	if g.pat.burstEnabled() {
		for g.clock >= g.burstUntil {
			g.burstOn = !g.burstOn
			mean := g.pat.burstOff()
			if g.burstOn {
				mean = g.pat.burstOn()
			}
			g.burstUntil += mean * g.exp()
		}
	}
	if g.pat.flashEnabled() {
		for g.clock >= g.flashUntil {
			g.flashOn = !g.flashOn
			mean := g.pat.flashOff()
			if g.flashOn {
				mean = g.pat.flashOn()
				g.sampleFlashBand()
			}
			g.flashUntil += mean * g.exp()
		}
	}
	g.clock += g.exp() / g.rate(g.clock)
	u := g.rng.Float64()
	if g.pat.flashEnabled() && g.flashOn {
		u = g.tilt(u)
	}
	rank := g.ten.Rank(u)
	return Arrival{At: g.clock, Tenant: rank, Class: g.slo.Class(rank, g.ten.n())}
}
