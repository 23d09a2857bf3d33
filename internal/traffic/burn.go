package traffic

import (
	"fmt"

	"cdpu/internal/prng"
)

// This file is the SLO burn layer: the per-tenant health signal of the
// overload control plane. A fleet serving a Zipf-skewed population cannot
// afford per-tenant state for a million tenants, and it does not need to: the
// head ranks carry most of the call mass, so the tracker pins the top-K ranks
// and samples the tail through a seeded reservoir. Each tracked tenant keeps
// two rolling good/bad windows on the modeled clock — a fast window that
// reacts inside a flash crowd and a slow window that filters single-arrival
// noise — and an alert fires on the classic multi-window condition: both burn
// rates over their thresholds at once.
//
// Everything here is deterministic: windows advance on modeled time, the
// reservoir's eviction draws come from a splitmix64 stream keyed on (seed,
// admission index), and the tracker is fed from the replay's serial merge, so
// alert counts are byte-identical at any worker count.

// burnBuckets is the bucket count of every rolling burn window: enough
// granularity that an expired event leaves within 1/8 of the window of its
// due time, cheap enough that per-tenant state stays a few dozen words.
const burnBuckets = 8

// burnWindowMinSamples gates a window's burn rate until it holds enough
// events to mean anything; below it the rate reads as "not ready" rather
// than 0 or NaN.
const burnWindowMinSamples = 8

// BurnWindow is a fixed-size bucketized rolling good/bad window on the
// modeled clock. Observe times must be non-decreasing (the replay's arrival
// clock); Rate divides the window's bad fraction by an error budget to give
// the burn rate — 1.0 means the budget is being consumed exactly at its
// sustainable pace, N means N times too fast. The zero value is unusable;
// build with NewBurnWindow.
type BurnWindow struct {
	bucket  float64 // bucket span in cycles (window width / burnBuckets)
	idx     int64   // current bucket ordinal
	started bool
	good    [burnBuckets]int32
	bad     [burnBuckets]int32
}

// NewBurnWindow builds a window spanning width cycles.
func NewBurnWindow(width float64) BurnWindow {
	return BurnWindow{bucket: width / burnBuckets}
}

// Observe books one call outcome at a modeled time.
func (w *BurnWindow) Observe(at float64, isBad bool) {
	b := int64(at / w.bucket)
	if !w.started {
		w.idx, w.started = b, true
	}
	if b-w.idx >= burnBuckets {
		w.good, w.bad = [burnBuckets]int32{}, [burnBuckets]int32{}
		w.idx = b
	}
	for w.idx < b {
		w.idx++
		s := w.idx % burnBuckets
		w.good[s], w.bad[s] = 0, 0
	}
	if isBad {
		w.bad[b%burnBuckets]++
	} else {
		w.good[b%burnBuckets]++
	}
}

// Rate returns the window's burn rate over the given error budget and whether
// the window holds enough samples to be trusted.
func (w *BurnWindow) Rate(budget float64) (float64, bool) {
	var good, bad int32
	for i := range w.good {
		good += w.good[i]
		bad += w.bad[i]
	}
	tot := good + bad
	if tot < burnWindowMinSamples {
		return 0, false
	}
	return float64(bad) / float64(tot) / budget, true
}

// BurnConfig parameterizes the per-tenant burn tracker. The zero value
// disables tracking entirely (the replay books no per-tenant state and the
// Report's burn fields stay zero — the bit-compat contract).
type BurnConfig struct {
	// TopK pins the heaviest tenant ranks 1..TopK for tracking; 0 disables
	// the tracker. Negative values are rejected by Validate.
	TopK int
	// ReservoirSize is the seeded reservoir sampled from the tail ranks
	// (> TopK) as they first appear (0 = 48). A tail tenant admitted later
	// may evict an earlier one — standard reservoir semantics — dropping the
	// evictee's windows.
	ReservoirSize int
	// FastWindowCycles / SlowWindowCycles are the two rolling windows the
	// multi-window alert condition reads (0 = 2e6 / 2e7: 1 ms and 10 ms of
	// modeled time at 2 GHz).
	FastWindowCycles float64
	SlowWindowCycles float64
}

// ErrorBudgetFrac is the error budget every burn rate in the control plane is
// normalized by — the per-tenant tracker's and the burn-driven autoscaler's:
// the bad-call fraction that counts as burn 1.0 (a 99% objective).
const ErrorBudgetFrac = 0.01

// fastBurn / slowBurn are the alert thresholds: a tenant alerts when its fast
// burn is at or above fastBurn AND its slow burn at or above slowBurn — the
// conventional page-severity pairing: burning 4x budget right now and 2x
// sustained.
const (
	fastBurn = 4
	slowBurn = 2
)

// Enabled reports whether the tracker runs at all.
func (b BurnConfig) Enabled() bool { return b.TopK > 0 }

func (b BurnConfig) reservoir() int {
	if b.ReservoirSize == 0 {
		return 48
	}
	return b.ReservoirSize
}

func (b BurnConfig) fastWindow() float64 {
	if b.FastWindowCycles == 0 {
		return 2e6
	}
	return b.FastWindowCycles
}

func (b BurnConfig) slowWindow() float64 {
	if b.SlowWindowCycles == 0 {
		return 2e7
	}
	return b.SlowWindowCycles
}

// Validate rejects tracker shapes the replay cannot give meaning to.
func (b BurnConfig) Validate() error {
	if b.TopK < 0 {
		return fmt.Errorf("traffic: Burn.TopK %d (want non-negative)", b.TopK)
	}
	if !b.Enabled() {
		if b != (BurnConfig{}) {
			return fmt.Errorf("traffic: Burn knobs set without TopK")
		}
		return nil
	}
	if b.ReservoirSize < 0 {
		return fmt.Errorf("traffic: Burn.ReservoirSize %d (want non-negative)", b.ReservoirSize)
	}
	if b.FastWindowCycles != 0 && !finitePos(b.FastWindowCycles) {
		return fmt.Errorf("traffic: Burn.FastWindowCycles %v (want finite, positive)", b.FastWindowCycles)
	}
	if b.SlowWindowCycles != 0 && !finitePos(b.SlowWindowCycles) {
		return fmt.Errorf("traffic: Burn.SlowWindowCycles %v (want finite, positive)", b.SlowWindowCycles)
	}
	return nil
}

// burnTenant is one tracked tenant's rolling state.
type burnTenant struct {
	rank     int
	class    int
	fast     BurnWindow
	slow     BurnWindow
	alerting bool // edge detector: a new alert fires on the false→true transition
}

// burnSalt decorrelates the reservoir's eviction stream from every other
// seeded stream in the replay.
const burnSalt = 0x5105bab1e5a17e44

// BurnTracker maintains burn state for the sampled tenant set and counts
// alert events per SLO class. Feed it every call outcome in arrival order
// (Observe times non-decreasing); outcomes for untracked tenants are dropped
// in O(1).
type BurnTracker struct {
	cfg  BurnConfig
	seed uint64

	top  []burnTenant // ranks 1..TopK, index rank-1
	res  []burnTenant // tail reservoir, insertion order
	slot map[int]int  // tail rank -> res index
	seen int          // distinct tail tenants offered to the reservoir

	alerts [NumClasses]int
}

// NewBurnTracker builds a tracker for one replay. seed is the replay seed;
// the config is assumed validated.
func NewBurnTracker(cfg BurnConfig, seed int64) *BurnTracker {
	t := &BurnTracker{
		cfg:  cfg,
		seed: uint64(seed) ^ burnSalt,
		top:  make([]burnTenant, cfg.TopK),
		res:  make([]burnTenant, 0, cfg.reservoir()),
		slot: make(map[int]int, cfg.reservoir()),
	}
	for i := range t.top {
		t.top[i] = t.newTenant(i + 1)
	}
	return t
}

func (t *BurnTracker) newTenant(rank int) burnTenant {
	return burnTenant{
		rank: rank,
		fast: NewBurnWindow(t.cfg.fastWindow()),
		slow: NewBurnWindow(t.cfg.slowWindow()),
	}
}

// draw is the reservoir's seeded eviction stream: one splitmix64 value per
// distinct tail tenant offered, keyed on position so the admission sequence
// is a pure function of (seed, arrival order).
func (t *BurnTracker) draw(i int) uint64 {
	return prng.Mix(t.seed + uint64(i)*prng.Gamma)
}

// lookup returns the tenant's tracked state, admitting new tail tenants
// through the reservoir; nil when the tenant is untracked.
func (t *BurnTracker) lookup(rank int) *burnTenant {
	if rank <= len(t.top) {
		return &t.top[rank-1]
	}
	if i, ok := t.slot[rank]; ok {
		return &t.res[i]
	}
	t.seen++
	if len(t.res) < t.cfg.reservoir() {
		t.res = append(t.res, t.newTenant(rank))
		t.slot[rank] = len(t.res) - 1
		return &t.res[len(t.res)-1]
	}
	// Classic reservoir replacement over first appearances: the i-th distinct
	// tail tenant displaces a uniform slot with probability size/i.
	if j := int(t.draw(t.seen) % uint64(t.seen)); j < len(t.res) {
		delete(t.slot, t.res[j].rank)
		t.res[j] = t.newTenant(rank)
		t.slot[rank] = j
		return &t.res[j]
	}
	return nil
}

// Observe books one call outcome: the tenant's rank, its SLO class, and
// whether the call was bad (shed, or served over its class target). at is
// the call's arrival on the modeled clock, non-decreasing across calls.
func (t *BurnTracker) Observe(at float64, rank, class int, isBad bool) {
	bt := t.lookup(rank)
	if bt == nil {
		return
	}
	bt.class = class
	bt.fast.Observe(at, isBad)
	bt.slow.Observe(at, isBad)
	fr, fok := bt.fast.Rate(ErrorBudgetFrac)
	sr, sok := bt.slow.Rate(ErrorBudgetFrac)
	hot := fok && sok && fr >= fastBurn && sr >= slowBurn
	if hot && !bt.alerting {
		t.alerts[class]++
	}
	bt.alerting = hot
}

// Alerts returns the per-class burn alert counts accumulated so far.
func (t *BurnTracker) Alerts() [NumClasses]int { return t.alerts }
