package fault

import (
	"fmt"
	"math"

	"cdpu/internal/prng"
)

// LifeKind classifies one device-lifecycle event on a replica — the
// whole-device failure modes a hyperscale fleet sees, as opposed to the
// per-call faults of StormKind. A lifecycle event covers a *window* of call
// indexes rather than a single dispatch: the replica is sick for a while and
// then recovers (or is warm-restarted).
type LifeKind int

const (
	// LifeCrash takes the replica out entirely: dispatches fail fast
	// (connection refused / dead doorbell) until the window ends, after
	// which the replica rejoins through a warm restart with a
	// placement-aware reinit cost.
	LifeCrash LifeKind = iota
	// LifeHang leaves the replica accepting dispatches that never complete:
	// each call occupies a pipeline until its watchdog cycle budget expires,
	// then fails.
	LifeHang
	// LifeBrownout degrades the replica's stream bandwidth (link retraining,
	// thermal throttling, a sick DIMM): calls complete correctly but slower,
	// at the stalled-MSHR degraded rate.
	LifeBrownout
)

// LifeKinds lists all lifecycle kinds in a stable order.
var LifeKinds = []LifeKind{LifeCrash, LifeHang, LifeBrownout}

func (k LifeKind) String() string {
	switch k {
	case LifeCrash:
		return "crash"
	case LifeHang:
		return "hang"
	case LifeBrownout:
		return "brownout"
	default:
		return fmt.Sprintf("LifeKind(%d)", int(k))
	}
}

// Lifecycle is a seeded device-lifecycle schedule for replicated CDPUs: which
// replicas are crashed, hung or browned out at which call indexes. The
// replica index identifies a physical card, so one replica's event covers all
// engine slots of that card simultaneously — exactly how a whole-device
// failure presents.
//
// Mirroring Storm, every decision is a pure function of (Seed, replica, call
// index): the call-index axis is divided into epochs of EpochCalls, each
// (replica, epoch) pair independently draws at most one event (start offset
// and duration within the epoch, duration capped at EpochCalls so an event
// spills into at most the next epoch), and State resolves a call index by
// consulting the two epochs whose events could cover it. Replays therefore
// see identical lifecycle weather at any worker count, and adding a schedule
// never perturbs the underlying call mix.
type Lifecycle struct {
	// Seed keys the lifecycle stream (independent of replay and storm seeds).
	Seed int64
	// Rate is the probability that a replica starts one lifecycle event in
	// any given epoch, in [0, 1].
	Rate float64
	// Kinds is the set the schedule draws from; nil/empty means all
	// LifeKinds.
	Kinds []LifeKind
	// EpochCalls is the epoch length in call indexes (0 = 256).
	EpochCalls int
	// MeanEventCalls is the mean event duration in call indexes (geometric,
	// at least 1, capped at EpochCalls; 0 = EpochCalls/4).
	MeanEventCalls int
}

// BrownoutStallMSHRs is the number of outstanding-request slots a brownout
// holds hostage on every streaming transfer (the stalled-MSHR degraded
// bandwidth model): 31 of the default 32 slots, pinning the port to a single
// outstanding beat. Near-core placements have enough bandwidth headroom that
// milder stalls never become the bottleneck, and a brownout that changes
// nothing is not a brownout.
const BrownoutStallMSHRs = 31

// lifeSalt decorrelates the lifecycle stream from the replay sampling stream,
// the chaos storm stream, and the backoff stream.
const lifeSalt = 0x0decea5ed0ddba11

// defaultEpochCalls keeps event windows long enough for breakers to open and
// probe within one event at realistic replay sizes.
const defaultEpochCalls = 256

func (l *Lifecycle) epochCalls() int {
	if l.EpochCalls > 0 {
		return l.EpochCalls
	}
	return defaultEpochCalls
}

// Event returns the lifecycle event drawn for (replica, epoch): whether one
// starts there, its kind, and its covering call-index interval [start, end).
// Pure in (l, replica, epoch).
func (l *Lifecycle) Event(replica, epoch int) (kind LifeKind, start, end int, ok bool) {
	if l == nil || l.Rate <= 0 || epoch < 0 {
		return 0, 0, 0, false
	}
	r := prng.New((uint64(l.Seed) ^ lifeSalt) +
		(uint64(replica)+1)*0xa24baed4963ee407 + (uint64(epoch)+1)*prng.Gamma)
	if r.Float64() >= l.Rate {
		return 0, 0, 0, false
	}
	kinds := l.Kinds
	if len(kinds) == 0 {
		kinds = LifeKinds
	}
	kind = kinds[r.Intn(len(kinds))]
	e := l.epochCalls()
	start = epoch*e + r.Intn(e)
	mean := l.MeanEventCalls
	if mean <= 0 {
		mean = max(1, e/4)
	}
	// Geometric duration with the given mean via inverse transform: one draw,
	// deterministic, capped at the epoch length so State only ever has to
	// consult two epochs.
	length := 1
	if mean > 1 {
		p := float64(mean-1) / float64(mean) // continue probability, mean = 1/(1-p)
		u := r.Float64()
		if u > 0 {
			length = 1 + int(math.Log(u)/math.Log(p))
		} else {
			length = e
		}
		length = min(max(1, length), e)
	}
	return kind, start, start + length, true
}

// State returns the lifecycle state covering (replica, call), if any. When an
// event spilling over from the previous epoch overlaps one starting in the
// call's own epoch, the earlier-started event wins — a card cannot be both
// crashed and browned out, and the first failure to arrive is the one the
// fleet observes. Pure in (l, replica, call).
func (l *Lifecycle) State(replica, call int) (LifeKind, bool) {
	if l == nil || l.Rate <= 0 || call < 0 {
		return 0, false
	}
	epoch := call / l.epochCalls()
	for _, e := range [2]int{epoch - 1, epoch} {
		if kind, start, end, ok := l.Event(replica, e); ok && call >= start && call < end {
			return kind, true
		}
	}
	return 0, false
}

// AnyBrownoutRange reports whether any replica in the index window
// [base, base+n) is browned out at the given call index — the phase-B
// predicate deciding whether a replay must also compute the call's
// degraded-bandwidth service time, for a device instance whose replica group
// lives at base in the schedule's replica space (cluster.Group's
// ReplicaBase).
func (l *Lifecycle) AnyBrownoutRange(base, n, call int) bool {
	if l == nil || l.Rate <= 0 {
		return false
	}
	for r := base; r < base+n; r++ {
		if kind, ok := l.State(r, call); ok && kind == LifeBrownout {
			return true
		}
	}
	return false
}
