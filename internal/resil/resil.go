// Package resil is the recovery-policy layer of the CDPU model: what the
// system does *after* a fault, not just that one occurred. Production
// deployments never let an offload engine take down serving — they retry
// transient device faults with capped, jittered backoff, escape to the
// software codec path when the device stays sick, quarantine and reset a
// pipeline that faults repeatedly, and shed load explicitly rather than let
// queues grow without bound. Policy packages those four mechanisms as knobs;
// its zero value disables all of them: a call aborts on its first fault.
//
// Every stochastic choice the policy makes (the backoff jitter) is a pure
// function of a caller-provided seed, so a replay under any worker count —
// or under the race detector — produces byte-identical Reports.
package resil

import (
	"errors"
	"math"

	"cdpu/internal/obs"
	"cdpu/internal/prng"
)

// ErrShed is the explicit result of a call rejected by admission control:
// the device's bounded queue was full, the call consumed zero service
// cycles, and the caller is expected to retry elsewhere or degrade.
var ErrShed = errors.New("resil: call shed by admission control")

// ErrDeadlineShed is the result of deadline-aware admission rejecting a call
// whose earliest possible completion already misses its latency deadline —
// hopeless work that would only burn device cycles on an SLO violation.
var ErrDeadlineShed = errors.New("resil: call shed by deadline-aware admission (unmeetable)")

// Recovery-event instruments. The reconciliation invariant — counter deltas
// match the per-call outcome totals a replay Report carries — is pinned by
// the sim tests.
var (
	// MetricRetries counts device re-dispatches after a transient fault.
	MetricRetries = obs.Default().Counter("resil.retries")
	// MetricFallbacks counts calls served by the software codec path.
	MetricFallbacks = obs.Default().Counter("resil.fallbacks")
	// MetricQuarantines counts pipeline quarantine-and-reset events.
	MetricQuarantines = obs.Default().Counter("resil.quarantines")
	// MetricSheds counts calls rejected by admission control.
	MetricSheds = obs.Default().Counter("resil.sheds")
	// MetricDeadlineSheds counts the MetricSheds subset rejected by
	// deadline-aware admission (unmeetable deadline, not queue pressure).
	MetricDeadlineSheds = obs.Default().Counter("resil.deadline_sheds")
)

// Policy parameterizes fault recovery. The zero value disables every
// mechanism: a device fault aborts the whole run (the pre-recovery
// behavior), no queue bound applies, and no pipeline is ever quarantined.
type Policy struct {
	// MaxAttempts is the total number of device dispatches a call may
	// consume before recovery gives up on the device (0 or 1 = no retry).
	// Only transient faults — memory faults and watchdog trips — are
	// retried; corrupt-input faults skip straight to the fallback, since
	// re-reading the same corrupt bytes cannot succeed.
	MaxAttempts int
	// BackoffBaseCycles is the delay before the first re-dispatch; each
	// further retry doubles it, capped at BackoffMaxCycles. The wait is
	// charged into the call's modeled latency (the dispatch slot is held),
	// keeping Reports independent of worker count.
	BackoffBaseCycles float64
	// BackoffMaxCycles caps the exponential schedule (0 = uncapped).
	BackoffMaxCycles float64
	// JitterFrac spreads each delay over [1-JitterFrac, 1) of its nominal
	// value using the caller's seeded stream, decorrelating retry storms.
	// 0 means no jitter; values are clamped to [0, 1].
	JitterFrac float64
	// SoftwareFallback, when set, serves a call on the modeled CPU codec
	// path (the xeon cost tables) after device recovery is exhausted, and
	// marks the result degraded. Without it, an unrecovered fault aborts.
	SoftwareFallback bool
	// QuarantineK is the fault count within QuarantineWindowCycles that
	// quarantines a pipeline (0 = never quarantine).
	QuarantineK int
	// QuarantineWindowCycles is the sliding window the fault count applies
	// to (0 with QuarantineK > 0 = all faults count forever).
	QuarantineWindowCycles float64
	// QuarantinePenaltyCycles is how long a quarantined pipeline stays out
	// of dispatch after its reset completes. The drain-and-reinitialize
	// itself costs the device's placement-aware reset model
	// (soc.Interface.PipelineResetCycles).
	QuarantinePenaltyCycles float64
	// MaxQueue bounds the number of calls waiting (not yet in service) per
	// device; an arrival finding the queue full is shed with ErrShed and
	// zero service cycles. 0 = unbounded.
	MaxQueue int
	// PriorityClasses differentiates admission by call priority (0 or 1 =
	// every call sees the full MaxQueue). With C classes, a call of priority
	// p (0 = highest) is admitted only while the queue depth is below
	// QueueBound(p): nested thresholds where each lower class gives up an
	// equal share of the queue's upper half, so as the queue fills the
	// lowest class is refused first and the highest keeps the whole bound —
	// the open-loop SLO contract of shedding bronze before gold.
	PriorityClasses int
	// DeadlineFactor enables deadline-aware admission on top of (and before)
	// the class-differentiated queue bound: an arriving call whose earliest
	// possible completion — the earliest pipeline free time plus its
	// estimated service — would exceed DeadlineFactor times its class latency
	// target is shed immediately with ErrDeadlineShed, so hopeless work never
	// occupies a device. Equivalently: the call's remaining deadline budget
	// (factor·target minus the wait it has already accrued at dispatch) no
	// longer covers its service. 1 is strict; larger values admit calls with
	// that much slack over target. 0 disables. Calls with no known target
	// (closed-loop replays) are never deadline-shed.
	DeadlineFactor float64
}

// ReferencePolicy is the full recovery policy the chaos and failover
// experiments and fleetsim measure: three dispatch attempts with capped
// jittered backoff, software fallback when the device stays sick, quarantine
// after three faults in a 1 ms window, and a 256-deep admission queue.
func ReferencePolicy() Policy {
	return Policy{
		MaxAttempts:             3,
		BackoffBaseCycles:       2000,
		BackoffMaxCycles:        64000,
		JitterFrac:              0.5,
		SoftwareFallback:        true,
		QuarantineK:             3,
		QuarantineWindowCycles:  2e6,
		QuarantinePenaltyCycles: 1e5,
		MaxQueue:                256,
	}
}

// QueueBound returns the admission-queue depth at which a call of the given
// priority (0 = highest) is shed. With MaxQueue Q and PriorityClasses C > 1,
// priority p's bound is Q - p·(Q/2)/(C-1): class 0 keeps the full queue,
// the lowest class is refused once the queue is half full, and intermediate
// classes interpolate linearly — never below 1. Priority 0, an unbounded
// queue, or fewer than two classes reproduce MaxQueue exactly, which is what
// keeps closed-loop replays bit-identical.
func (p Policy) QueueBound(priority int) int {
	q := p.MaxQueue
	if q <= 0 || p.PriorityClasses <= 1 || priority <= 0 {
		return q
	}
	if priority >= p.PriorityClasses {
		priority = p.PriorityClasses - 1
	}
	b := q - priority*(q/2)/(p.PriorityClasses-1)
	if b < 1 {
		b = 1
	}
	return b
}

// BackoffSeed derives the backoff stream for one call from the replay seed
// and the call index, independent of every other per-call stream (payload
// kind, arrival jitter, chaos schedule), so adding recovery draws cannot
// perturb an existing replay's sampling.
func BackoffSeed(seed int64, call int) uint64 {
	return (uint64(seed) ^ 0xb0ffc0de5eed1234) + (uint64(call)+1)*prng.Gamma
}

// uncappedBackoffCeiling bounds the exponential delay when BackoffMaxCycles
// is zero (uncapped). Without it, BackoffBaseCycles * 2^(retry-1) overflows
// to +Inf around retry ~1024, and the replay layer rejects a non-finite
// service time; 2^62 cycles (~73 years at 2 GHz) is already "never" while
// keeping sums of many waits comfortably finite.
const uncappedBackoffCeiling = float64(1 << 62)

// Backoff returns the jittered delay in cycles before re-dispatch number
// `retry` (1 = the first retry). It is a pure function of (policy, seed,
// retry): delay = min(BackoffMaxCycles, BackoffBaseCycles * 2^(retry-1)),
// scaled into [1-JitterFrac, 1) by the retry's draw from the seeded stream.
// The result is always finite: with no configured cap the exponential is
// clamped at uncappedBackoffCeiling instead of overflowing to +Inf.
func (p Policy) Backoff(seed uint64, retry int) float64 {
	if retry < 1 || p.BackoffBaseCycles <= 0 {
		return 0
	}
	d := p.BackoffBaseCycles * math.Pow(2, float64(retry-1))
	if p.BackoffMaxCycles > 0 {
		if d > p.BackoffMaxCycles {
			d = p.BackoffMaxCycles
		}
	} else if !(d < uncappedBackoffCeiling) { // catches +Inf too
		d = uncappedBackoffCeiling
	}
	j := p.JitterFrac
	if j <= 0 {
		return d
	}
	if j > 1 {
		j = 1
	}
	// One draw per retry index, keyed by position so schedules are stable
	// under any interleaving of calls.
	u := prng.Unit(prng.Mix(seed + uint64(retry)*prng.Gamma))
	return d * (1 - j + j*u)
}
