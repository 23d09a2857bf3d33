// Package cluster models a replica group of CDPU devices behind a
// deterministic failover dispatcher — the resilience tier between the
// per-pipeline recovery of internal/resil and the fleet replay of
// internal/sim. One Group owns N identical replicas (physical cards, each
// with the device's pipeline count); calls arrive in modeled time, and the
// dispatcher routes each one through per-replica circuit breakers, failover
// re-dispatch, optional hedged dispatch, and the device-lifecycle weather of
// a fault.Lifecycle schedule (crash / hang / brownout / warm restart).
//
// Everything runs on the modeled clock in one serial pass per group, so a
// replay embedding Groups stays byte-identical at any worker count: the only
// inputs are the call list (index-addressed, precomputed in a parallel phase)
// and pure seeded schedules.
package cluster

import (
	"errors"
	"fmt"
	"math"

	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// Failover outcome instruments; they reconcile with the Totals a Replay
// returns (and, one level up, with sim.Report counters).
var (
	metricFailovers = obs.Default().Counter("cluster.failovers")
	metricHedged    = obs.Default().Counter("cluster.hedged_calls")
	metricHedgeWins = obs.Default().Counter("cluster.hedge_wins")
	metricOpens     = obs.Default().Counter("cluster.breaker_opens")
	metricRestarts  = obs.Default().Counter("cluster.replica_restarts")
	metricSwServed  = obs.Default().Counter("cluster.sw_served")
	metricScaleUps  = obs.Default().Counter("cluster.scale_ups")
	metricScaleDown = obs.Default().Counter("cluster.scale_downs")
)

// ErrNoReplica is the underlying cause when a call finds no replica able to
// serve it and the policy allows no software fallback.
var ErrNoReplica = errors.New("cluster: no replica available")

// FailoverPolicy parameterizes the dispatcher. The zero value disables every
// mechanism: no failover, no breakers, no hedging — a single-candidate
// dispatch that aborts when the replica is sick, as the zero resil.Policy
// aborts on the first fault.
type FailoverPolicy struct {
	// MaxFailovers is how many additional replicas a failed dispatch may try
	// (0 = the call lives or dies on its first candidate).
	MaxFailovers int
	// FailoverPenaltyCycles is charged into the call's modeled latency per
	// failover hop (re-dispatch overhead: doorbell, descriptor rewrite).
	FailoverPenaltyCycles float64
	// BreakerFailures / BreakerWindow / BreakerErrorRate / BreakerOpenCycles /
	// BreakerHalfOpenProbes parameterize each replica's Breaker; see Breaker.
	BreakerFailures       int
	BreakerWindow         int
	BreakerErrorRate      float64
	BreakerOpenCycles     float64
	BreakerHalfOpenProbes int
	// Hedge enables hedged dispatch: when a call's primary would keep the
	// caller waiting past the hedge delay (queue plus service, measured from
	// dispatch), a second dispatch fires on the next candidate and the first
	// completion wins; the loser is cancelled and only its occupancy up to
	// the cancel instant is charged.
	Hedge bool
	// HedgeDelayCycles is the hedge delay; hedging fires at this delay or,
	// when it is 0, not at all.
	HedgeDelayCycles float64
	// CrashDetectCycles is the modeled cost of discovering a crashed replica
	// (dead doorbell timeout) before failing over (0 = 4000).
	CrashDetectCycles float64
	// RestartCycles is the warm-restart charge when a crashed replica rejoins
	// (0 = placement-aware: pipelines × the device's PipelineResetCycles).
	RestartCycles float64
}

// ReferenceFailoverPolicy is the full cluster policy the failover experiment
// and fleetsim measure: three failover hops with a fixed re-dispatch penalty,
// a breaker armed on both consecutive failures and windowed error rate, hedged
// dispatch at a fixed delay, and explicit crash-detection and warm-restart
// costs.
func ReferenceFailoverPolicy() FailoverPolicy {
	return FailoverPolicy{
		MaxFailovers:          3,
		FailoverPenaltyCycles: 2000,
		BreakerFailures:       3,
		BreakerWindow:         32,
		BreakerErrorRate:      0.5,
		BreakerOpenCycles:     2e5,
		BreakerHalfOpenProbes: 2,
		Hedge:                 true,
		HedgeDelayCycles:      120000,
		CrashDetectCycles:     4000,
		RestartCycles:         50000,
	}
}

// Enabled reports whether any failover mechanism is configured.
func (p FailoverPolicy) Enabled() bool { return p != FailoverPolicy{} }

func (p FailoverPolicy) crashDetect() float64 {
	if p.CrashDetectCycles > 0 {
		return p.CrashDetectCycles
	}
	return 4000
}

func (p FailoverPolicy) restart(pipelines int, reset float64) float64 {
	if p.RestartCycles > 0 {
		return p.RestartCycles
	}
	return float64(pipelines) * reset
}

func (p FailoverPolicy) breaker() Breaker {
	return Breaker{
		Failures:       p.BreakerFailures,
		Window:         p.BreakerWindow,
		ErrorRate:      p.BreakerErrorRate,
		OpenCycles:     p.BreakerOpenCycles,
		HalfOpenProbes: p.BreakerHalfOpenProbes,
	}
}

// Call is one precomputed call entering the group, in arrival order. Service
// and the annotations are produced by a parallel execution phase; the
// dispatcher only does deterministic queueing arithmetic with them.
type Call struct {
	// Arrival is the submission time in device cycles (non-decreasing).
	Arrival float64
	// Index is the call's global replay index — the key into the lifecycle
	// schedule and the identity reported on an abort.
	Index int
	// Service is the healthy device service time in cycles.
	Service float64
	// Post is latency observed after the device (a phase-B software-fallback
	// tail); charged to the call, not to pipeline occupancy.
	Post float64
	// Faults counts the device-fault events the call's dispatches inflicted
	// (feeds pipeline quarantine).
	Faults int
	// Degraded marks a call already served by the phase-B software fallback.
	Degraded bool
	// Brown is the degraded-bandwidth service time used when the serving
	// replica is browned out (0 = fall back to Service).
	Brown float64
	// HangBudget is the watchdog budget a hung dispatch burns before failing.
	HangBudget float64
	// Software is the software service time for serving the call when no
	// replica is available (0 = no software fallback, the group aborts).
	Software float64
	// Bytes is the call's uncompressed size (goodput accounting upstream).
	Bytes int
	// Priority is the call's admission class (0 = highest): the group-level
	// queue sheds it once the depth reaches Resil.QueueBound(Priority), so
	// under a priority-classed policy the lowest class is refused first.
	Priority int
	// Target is the call's latency deadline in cycles: deadline-aware
	// admission (Resil.DeadlineFactor) sheds the call on arrival when its
	// earliest possible completion would exceed DeadlineFactor·Target, and
	// the burn-driven autoscaler counts a served call over Target as bad.
	// 0 = no deadline.
	Target float64
}

// Totals aggregates the failover outcomes of one Replay.
type Totals struct {
	Failovers         int     // re-dispatch hops after a failed attempt
	HedgedCalls       int     // calls that fired a hedge dispatch
	HedgeWins         int     // hedges that completed before the primary
	BreakerOpens      int     // breaker open transitions across replicas
	ReplicaRestarts   int     // warm restarts of rejoining crashed replicas
	UnavailableCycles float64 // summed modeled time replicas spent open
	SwServed          int     // calls served in software with all replicas down
	Degraded          int     // SwServed calls not already degraded in phase B
	Dispatches        []int   // served calls per replica (hedge wins count for the hedge)
	ScaleUps          int     // autoscaler replica activations
	ScaleDowns        int     // autoscaler replica drains
}

// CallError reports the lowest-index call a Group could not serve; the sim
// layer merges CallErrors across groups by Index so the surfaced abort is
// the first failure a serial run would hit.
type CallError struct {
	Index int
	Err   error
}

func (e *CallError) Error() string { return fmt.Sprintf("call %d: %v", e.Index, e.Err) }
func (e *CallError) Unwrap() error { return e.Err }

// Group is one deviceOrder slot's replica set.
type Group struct {
	// Replicas is the replica count (minimum 1).
	Replicas int
	// Pipelines per replica.
	Pipelines int
	// ResetCycles is the device's placement-aware pipeline reset cost — the
	// quarantine charge and the per-pipeline unit of the warm-restart charge.
	ResetCycles float64
	// Unit names the device in abort errors (core.Config.Name()).
	Unit string
	// Resil supplies the group-level admission queue (MaxQueue), the
	// quarantine thresholds, and whether software fallback may serve a call
	// when every replica is down.
	Resil resil.Policy
	// Policy is the failover policy.
	Policy FailoverPolicy
	// Lifecycle is the seeded device-lifecycle schedule (nil = always
	// healthy).
	Lifecycle *fault.Lifecycle
	// ReplicaBase offsets this group's replica indices into the lifecycle
	// schedule's replica space. A fleet that fans one device slot out into
	// several instances gives each instance a disjoint base so the instances
	// see independent lifecycle weather from the same seed (0 for a
	// single-instance slot).
	ReplicaBase int
	// Autoscale, when enabled, keeps only a sliding prefix of the deployed
	// replicas active: the group starts at Autoscale.Min() active replicas,
	// activates the next drained one (charged the warm-restart cost) when the
	// admission queue reaches UpQueueDepth, and drains the highest active one
	// back when the queue empties to DownQueueDepth. The zero value keeps
	// every replica active.
	Autoscale traffic.Autoscale
}

// minFree returns the earliest next-free time across one replica's pipelines.
func minFree(free []float64) float64 {
	m := free[0]
	for _, f := range free[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

// earliest returns the index of the earliest-free pipeline.
func earliest(free []float64) int {
	p := 0
	for k := 1; k < len(free); k++ {
		if free[k] < free[p] {
			p = k
		}
	}
	return p
}

// order rebuilds the candidate list for one dispatch: half-open replicas
// first in ascending index (probes rebuild confidence before load returns),
// then closed replicas by earliest-free time. Equal-free closed replicas —
// the common case under light load, where every pipeline is already idle —
// round-robin on the call's global index rather than always electing replica
// 0, so dispatch spreads across the group and every replica's lifecycle is
// actually exercised. Open replicas are excluded, as are replicas at or above
// active (drained by the autoscaler; active == len(brk) without autoscaling).
// Deterministic by construction: the rotation depends only on the call index
// and the insertion sort is stable.
func order(cand []int, free [][]float64, brk []Breaker, rot, active int) []int {
	cand = cand[:0]
	for r := 0; r < active; r++ {
		if brk[r].State() == BreakerHalfOpen {
			cand = append(cand, r)
		}
	}
	closed := len(cand)
	for k := 0; k < active; k++ {
		r := (rot + k) % active
		if brk[r].State() == BreakerClosed {
			cand = append(cand, r)
		}
	}
	sorted := cand[closed:]
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && minFree(free[sorted[j]]) < minFree(free[sorted[j-1]]); j-- {
			sorted[j-1], sorted[j] = sorted[j], sorted[j-1]
		}
	}
	return cand
}

// Replay dispatches calls (sorted by Arrival) across the group's replicas in
// one deterministic serial pass and returns per-call results, the device
// statistics of the whole group (utilization is over replicas × pipelines),
// and the failover totals. On an unservable call it returns a *CallError
// carrying the call's global Index; because calls are processed in order,
// that is the lowest failing index in the group.
func (g *Group) Replay(calls []Call) ([]core.JobResult, core.DeviceStats, Totals, error) {
	st := g.NewState(len(calls))
	if len(calls) == 0 {
		return nil, core.DeviceStats{}, st.tot, nil
	}
	for i := range calls {
		if err := st.Step(&calls[i]); err != nil {
			return nil, core.DeviceStats{}, st.tot, err
		}
	}
	results, devStats, tot := st.Finish()
	return results, devStats, tot, nil
}

// GroupState is Replay unrolled into one Step per call, so a discrete-event
// engine can drive a replica group arrival by arrival instead of walking a
// fully materialized call slice. Replay itself is a thin loop over Step +
// Finish; the per-call arithmetic is the same operations in the same order,
// so driving the state from an event queue produces results bit-identical to
// the serial pass.
type GroupState struct {
	g      *Group
	nR, nP int
	tot    Totals

	free         [][]float64
	brk          []Breaker
	needRestart  []bool
	results      []core.JobResult
	faultLog     [][]float64
	pending      []float64
	pendingHead  int
	cand         []int
	busy         float64
	first        float64
	lastDone     float64
	served       int
	shed         int
	shedDeadline int
	quar         int
	maxAttempts  int
	prev         float64 // previous arrival, for the sorted-input check
	n            int     // calls stepped so far
	// Autoscaler state: replicas [0, active) take dispatch; the rest are
	// drained. trackQueue keeps the pending window maintained even without a
	// MaxQueue bound, so the scaler can read the depth. In burn-driven mode
	// the scaler instead reads the group-level rolling burn window, fed one
	// outcome per call at its arrival instant.
	active     int
	coolUntil  float64
	trackQueue bool
	burn       traffic.BurnWindow
}

// NewState prepares an incremental dispatch pass over n expected calls.
func (g *Group) NewState(n int) *GroupState {
	nR := max(1, g.Replicas)
	nP := max(1, g.Pipelines)
	st := &GroupState{
		g:           g,
		nR:          nR,
		nP:          nP,
		tot:         Totals{Dispatches: make([]int, nR)},
		free:        make([][]float64, nR),
		brk:         make([]Breaker, nR),
		needRestart: make([]bool, nR),
		results:     make([]core.JobResult, 0, n),
		cand:        make([]int, 0, nR),
		maxAttempts: 1 + max(0, g.Policy.MaxFailovers),
	}
	for r := range st.free {
		st.free[r] = make([]float64, nP)
	}
	for r := range st.brk {
		st.brk[r] = g.Policy.breaker()
	}
	if g.Resil.QuarantineK > 0 {
		st.faultLog = make([][]float64, nR*nP)
	}
	st.active = nR
	st.trackQueue = g.Resil.MaxQueue > 0
	if g.Autoscale.Enabled() {
		st.active = min(nR, g.Autoscale.Min())
		st.trackQueue = true
		if g.Autoscale.BurnDriven() {
			st.burn = traffic.NewBurnWindow(g.Autoscale.BurnWindow())
		}
	}
	return st
}

// Restarts returns the warm-restart count accumulated so far. A
// discrete-event driver diffs it across Steps to attribute restart work to
// the epoch in which it happened.
func (st *GroupState) Restarts() int { return st.tot.ReplicaRestarts }

// Last returns the result of the most recently stepped call (nil before the
// first Step). The pointer is into the state's result slice; it is valid
// until the next Step.
func (st *GroupState) Last() *core.JobResult {
	if len(st.results) == 0 {
		return nil
	}
	return &st.results[len(st.results)-1]
}

// autoscale applies the replica policy at one arrival instant. The trigger is
// either the admission-queue depth or, with UpBurn set, the group's rolling
// SLO burn rate: scaling on the harm overload is doing — calls shed or served
// over target — rather than on the queue that merely predicts it. Scale-up
// activates the next drained replica and charges it the same warm-restart
// cost a crash-rejoin pays, so capacity is never free; scale-down drains the
// highest active replica (it finishes in-flight work but receives no new
// dispatches). Both directions share one cooldown on the modeled clock. Driven
// only by the serial arrival stream, the decision sequence is independent of
// worker count.
func (st *GroupState) autoscale(now float64, depth int) {
	auto := st.g.Autoscale
	if now < st.coolUntil {
		return
	}
	up := depth >= auto.UpQueueDepth
	down := depth <= auto.DownQueueDepth
	if auto.BurnDriven() {
		rate, ok := st.burn.Rate(traffic.ErrorBudgetFrac)
		if !ok {
			return // not enough recent signal to act either way
		}
		up = rate >= auto.UpBurn
		down = rate <= auto.DownBurn
	}
	if up && st.active < st.nR {
		r := st.active
		// A drained replica can still hold an open breaker from its active
		// days; activating it would route load straight into a known-sick
		// card. Leave it drained until the open window expires into half-open
		// (no cooldown charged, so the very next arrival may retry).
		st.brk[r].Observe(now)
		if st.brk[r].State() == BreakerOpen {
			return
		}
		st.active++
		rc := st.g.Policy.restart(st.nP, st.g.ResetCycles)
		for p := range st.free[r] {
			st.free[r][p] = math.Max(st.free[r][p], now) + rc
		}
		st.busy += rc * float64(st.nP)
		st.needRestart[r] = false
		st.tot.ScaleUps++
		metricScaleUps.Inc()
		st.coolUntil = now + auto.Cooldown()
	} else if down && st.active > min(st.nR, auto.Min()) {
		st.active--
		st.tot.ScaleDowns++
		metricScaleDown.Inc()
		st.coolUntil = now + auto.Cooldown()
	}
}

// bookBurn feeds one call outcome into the burn-driven scaler's window at the
// call's arrival instant (the serial clock every Step shares, so the scaler's
// reads are worker-count invariant). A call is bad when it was shed or when it
// was served past its latency target; calls with no target are always good.
func (st *GroupState) bookBurn(at, latency float64, shed bool, target float64) {
	if !st.g.Autoscale.BurnDriven() {
		return
	}
	st.burn.Observe(at, shed || (target > 0 && latency > target))
}

// Step admits, dispatches and completes one call. Arrivals must be
// non-decreasing across calls. On an unservable call it finishes the breaker
// books and returns a *CallError carrying the call's global Index; the state
// must not be stepped again after an error.
func (st *GroupState) Step(c *Call) error {
	g := st.g
	i := st.n
	if i > 0 && c.Arrival < st.prev {
		return fmt.Errorf("cluster: calls not sorted by arrival")
	}
	for _, v := range [4]float64{c.Service, c.Post, c.Brown, c.HangBudget} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("cluster: call %d cycles %v (want finite, non-negative)", c.Index, v)
		}
	}
	if i == 0 {
		st.first = c.Arrival
	}
	st.prev = c.Arrival
	st.n++
	// Group-level admission: one logical queue in front of the replica
	// set, same FIFO-window bookkeeping as core.ReplayPolicy. The window is
	// also maintained bound-free when the autoscaler needs to read the
	// depth; the scaler acts before admission, so a burst can activate a
	// replica on the very arrival that would otherwise be refused.
	depth := 0
	if st.trackQueue {
		for st.pendingHead < len(st.pending) && st.pending[st.pendingHead] <= c.Arrival {
			st.pendingHead++
		}
		depth = len(st.pending) - st.pendingHead
		if g.Autoscale.Enabled() {
			st.autoscale(c.Arrival, depth)
		}
	}
	// Deadline-aware admission runs before the class-differentiated queue
	// bound: a call that cannot possibly finish inside DeadlineFactor times
	// its target — even started on the least-loaded active replica right now
	// — is hopeless work, and shedding it preserves queue budget for calls
	// whose deadlines are still live.
	if g.Resil.DeadlineFactor > 0 && c.Target > 0 {
		est := minFree(st.free[0])
		for r := 1; r < st.active; r++ {
			if f := minFree(st.free[r]); f < est {
				est = f
			}
		}
		if est < c.Arrival {
			est = c.Arrival
		}
		if est+c.Service > c.Arrival+g.Resil.DeadlineFactor*c.Target {
			st.results = append(st.results, core.JobResult{Start: c.Arrival, Pipeline: -1, Err: resil.ErrDeadlineShed})
			st.shed++
			st.shedDeadline++
			resil.MetricSheds.Inc()
			resil.MetricDeadlineSheds.Inc()
			st.bookBurn(c.Arrival, 0, true, c.Target)
			return nil
		}
	}
	if g.Resil.MaxQueue > 0 && depth >= g.Resil.QueueBound(c.Priority) {
		st.results = append(st.results, core.JobResult{Start: c.Arrival, Pipeline: -1, Err: resil.ErrShed})
		st.shed++
		resil.MetricSheds.Inc()
		st.bookBurn(c.Arrival, 0, true, c.Target)
		return nil
	}
	now := c.Arrival
	for r := range st.brk {
		st.brk[r].Observe(now)
	}
	st.cand = order(st.cand, st.free, st.brk, max(0, c.Index), st.active)
	cand := st.cand

	servedOK := false
	var start, done, svc, prevFree float64
	var sr, sp int
	ai := 0
	for attempt := 0; ai < len(cand) && attempt < st.maxAttempts; attempt++ {
		r := cand[ai]
		ai++
		if attempt > 0 {
			now += g.Policy.FailoverPenaltyCycles
			st.tot.Failovers++
			metricFailovers.Inc()
		}
		kind, sick := g.Lifecycle.State(g.ReplicaBase+r, c.Index)
		if sick && kind == fault.LifeCrash {
			// Dead doorbell: the detect timeout elapses, the replica is
			// marked for warm restart when its window ends.
			now += g.Policy.crashDetect()
			st.needRestart[r] = true
			st.brk[r].OnFailure(now)
			continue
		}
		if sick && kind == fault.LifeHang {
			// The dispatch is accepted and never completes: it holds a
			// pipeline for the watchdog budget, then fails.
			p := earliest(st.free[r])
			hs := math.Max(now, st.free[r][p])
			he := hs + c.HangBudget
			st.free[r][p] = he
			st.busy += c.HangBudget
			if he > st.lastDone {
				st.lastDone = he
			}
			now = he
			st.brk[r].OnFailure(now)
			continue
		}
		if st.needRestart[r] {
			// The replica's crash window has ended; it rejoins through a
			// warm restart charged on every pipeline before serving.
			rc := g.Policy.restart(st.nP, g.ResetCycles)
			for p := range st.free[r] {
				st.free[r][p] = math.Max(st.free[r][p], now) + rc
			}
			st.busy += rc * float64(st.nP)
			st.needRestart[r] = false
			st.tot.ReplicaRestarts++
			metricRestarts.Inc()
		}
		svc = c.Service
		if sick && c.Brown > 0 { // kind == LifeBrownout: the only sick kind left
			svc = c.Brown
		}
		sp = earliest(st.free[r])
		prevFree = st.free[r][sp]
		start = math.Max(now, st.free[r][sp])
		done = start + svc
		st.free[r][sp] = done
		st.busy += svc
		sr = r
		servedOK = true
		break
	}

	if !servedOK {
		// Every candidate was sick or every breaker open: the group is
		// dark for this call. Software fallback keeps serving when the
		// policy allows it; otherwise this is the deterministic abort.
		if g.Resil.SoftwareFallback && c.Software > 0 {
			done = now + c.Software
			if done > st.lastDone {
				st.lastDone = done
			}
			st.results = append(st.results, core.JobResult{
				Service: c.Software, Latency: done - c.Arrival + c.Post,
				Start: now, Pipeline: -1,
			})
			st.served++
			st.tot.SwServed++
			metricSwServed.Inc()
			if !c.Degraded {
				st.tot.Degraded++
				resil.MetricFallbacks.Inc()
			}
			if st.trackQueue {
				st.pending = append(st.pending, now)
			}
			st.bookBurn(c.Arrival, done-c.Arrival+c.Post, false, c.Target)
			return nil
		}
		finishBreakers(st.brk, &st.tot, st.lastDone)
		return &CallError{
			Index: c.Index,
			Err: &core.DeviceError{
				Reason: "replica-down", Unit: g.Unit,
				Cycles: now - c.Arrival, Err: ErrNoReplica,
			},
		}
	}

	// Hedged dispatch runs on the dispatch clock: if the primary would
	// keep the caller waiting past the hedge delay — deep queue, browned
	// replica, slow call — a second dispatch fires on the next candidate
	// at now+delay, and the first completion wins. The loser is
	// cancelled, charging only the occupancy it consumed before the
	// cancel instant. Replicas pending a warm restart are skipped (the
	// probe path handles their rejoin).
	if d := g.Policy.HedgeDelayCycles; g.Policy.Hedge && d > 0 && ai < len(cand) && !st.needRestart[cand[ai]] && done-now > d {
		h := cand[ai]
		st.tot.HedgedCalls++
		metricHedged.Inc()
		hkind, hsick := g.Lifecycle.State(g.ReplicaBase+h, c.Index)
		switch {
		case hsick && hkind == fault.LifeCrash:
			// The hedge fails fast in the background; no occupancy.
			st.needRestart[h] = true
			st.brk[h].OnFailure(now + d + g.Policy.crashDetect())
		case hsick && hkind == fault.LifeHang:
			st.brk[h].OnFailure(now + d + c.HangBudget)
		default:
			hsvc := c.Service
			if hsick && c.Brown > 0 {
				hsvc = c.Brown
			}
			hp := earliest(st.free[h])
			hstart := math.Max(now+d, st.free[h][hp])
			hdone := hstart + hsvc
			if hdone < done {
				// Hedge wins: cancel the primary at the win instant.
				// A primary cancelled before its service even began
				// releases its slot entirely (back to the pipeline's
				// prior commitment); one cancelled mid-service keeps
				// the occupancy it consumed.
				if hdone <= start {
					st.free[sr][sp] = prevFree
					st.busy -= svc
				} else {
					st.free[sr][sp] = hdone
					st.busy -= done - hdone
				}
				st.free[h][hp] = hdone
				st.busy += hsvc
				done, start, svc = hdone, hstart, hsvc
				sr, sp = h, hp
				st.tot.HedgeWins++
				metricHedgeWins.Inc()
			} else if hstart < done {
				// Primary wins: the hedge is cancelled mid-flight and
				// charged only up to the primary's completion.
				st.free[h][hp] = done
				st.busy += done - hstart
			}
		}
	}

	st.brk[sr].OnSuccess(done)
	if done > st.lastDone {
		st.lastDone = done
	}
	st.tot.Dispatches[sr]++

	// Pipeline quarantine, the same books as core.ReplayState keyed by
	// (replica, pipeline).
	if st.faultLog != nil && c.Faults > 0 {
		key := sr*st.nP + sp
		var quarantine bool
		st.faultLog[key], quarantine = core.BookFaults(st.faultLog[key], done, c.Faults, g.Resil)
		if quarantine {
			st.free[sr][sp] = done + g.ResetCycles + g.Resil.QuarantinePenaltyCycles
			st.quar++
		}
	}

	latency := done - c.Arrival
	if c.Post > 0 {
		latency += c.Post
	}
	st.results = append(st.results, core.JobResult{
		Queue:    start - c.Arrival,
		Service:  svc,
		Latency:  latency,
		Start:    start,
		Pipeline: sr*st.nP + sp,
	})
	st.served++
	if st.trackQueue {
		st.pending = append(st.pending, start)
	}
	st.bookBurn(c.Arrival, latency, false, c.Target)
	return nil
}

// Finish closes the breaker books and computes the group statistics over
// every stepped call. The state must not be stepped again afterwards.
func (st *GroupState) Finish() ([]core.JobResult, core.DeviceStats, Totals) {
	finishBreakers(st.brk, &st.tot, st.lastDone)
	results := st.results
	devStats := core.DeviceStats{Jobs: st.n, Makespan: st.lastDone - st.first, Shed: st.shed, DeadlineShed: st.shedDeadline, Quarantines: st.quar}
	if devStats.Makespan > 0 {
		devStats.Utilization = st.busy / (float64(st.nR*st.nP) * devStats.Makespan)
	}
	devStats.SummarizeLatency(results, st.served)
	return results, devStats, st.tot
}

// finishBreakers closes the books: still-open windows account their elapsed
// unavailability, and opens/unavailable roll up into the totals.
func finishBreakers(brk []Breaker, tot *Totals, end float64) {
	for r := range brk {
		brk[r].Finish(end)
		tot.BreakerOpens += brk[r].Opens()
		tot.UnavailableCycles += brk[r].UnavailableCycles()
		metricOpens.Add(int64(brk[r].Opens()))
	}
}
