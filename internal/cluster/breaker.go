package cluster

// BreakerState is one of the three circuit-breaker positions.
type BreakerState int

const (
	// BreakerClosed admits dispatches normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects every dispatch until OpenCycles have elapsed.
	BreakerOpen
	// BreakerHalfOpen admits probe dispatches: enough consecutive probe
	// successes close the breaker, any probe failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "invalid"
	}
}

// Breaker is a deterministic closed/open/half-open circuit breaker over one
// replica, driven entirely by the dispatcher's modeled clock — no wall time,
// no goroutines — so a replay using it stays byte-identical at any worker
// count. Two trip conditions feed it:
//
//   - consecutive failures: Failures > 0 opens the breaker after that many
//     failures in a row with no intervening success;
//   - windowed error rate: Window > 0 with ErrorRate > 0 opens it once the
//     sliding window over the last Window outcomes is full and its failure
//     fraction reaches ErrorRate.
//
// Open lasts OpenCycles on the modeled clock; Observe transitions to
// half-open once the clock passes the deadline. In half-open, HalfOpenProbes
// successes (minimum 1) close the breaker and reset both trip conditions; a
// single failure re-opens it. With both trip conditions zero the breaker
// never opens, which is the zero-policy passthrough.
type Breaker struct {
	// Failures is the consecutive-failure trip threshold (0 = disabled).
	Failures int
	// Window is the sliding outcome-window size (0 = disabled).
	Window int
	// ErrorRate is the windowed failure fraction that trips a full window.
	ErrorRate float64
	// OpenCycles is how long the breaker stays open before probing.
	OpenCycles float64
	// HalfOpenProbes is the successes needed to close from half-open
	// (minimum 1).
	HalfOpenProbes int

	state     BreakerState
	consec    int
	ring      []bool // lazily sized to Window; true = failure
	ringIdx   int
	ringFill  int
	ringFails int
	openedAt  float64
	openUntil float64
	probeOK   int
	opens     int
	unavail   float64
}

// State returns the current position. Callers should Observe(now) first so
// expired open windows have transitioned to half-open.
func (b *Breaker) State() BreakerState { return b.state }

// Opens returns how many times the breaker has opened.
func (b *Breaker) Opens() int { return b.opens }

// UnavailableCycles returns the accumulated modeled time the breaker has
// spent open (completed open windows; call Finish to account a window still
// open at the end of a replay).
func (b *Breaker) UnavailableCycles() float64 { return b.unavail }

// Observe advances the breaker to the modeled clock: an open window whose
// deadline has passed transitions to half-open and books its unavailability.
func (b *Breaker) Observe(now float64) {
	if b.state == BreakerOpen && now >= b.openUntil {
		b.unavail += b.openUntil - b.openedAt
		b.state = BreakerHalfOpen
		b.probeOK = 0
	}
}

// OnSuccess records a successful dispatch completing at the modeled time.
func (b *Breaker) OnSuccess(now float64) {
	switch b.state {
	case BreakerHalfOpen:
		b.probeOK++
		if b.probeOK >= max(1, b.HalfOpenProbes) {
			b.state = BreakerClosed
			b.reset()
		}
	case BreakerClosed:
		b.consec = 0
		b.record(false)
	}
}

// OnFailure records a failed dispatch at the modeled time. In half-open any
// failure re-opens; closed trips on either threshold.
func (b *Breaker) OnFailure(now float64) {
	switch b.state {
	case BreakerHalfOpen:
		b.open(now)
	case BreakerClosed:
		b.consec++
		b.record(true)
		if (b.Failures > 0 && b.consec >= b.Failures) || b.windowTripped() {
			b.open(now)
		}
	}
}

// Finish accounts an open window still pending at the end of a replay,
// clamped to the window's own deadline (the replica would have become
// probe-able then).
func (b *Breaker) Finish(end float64) {
	if b.state == BreakerOpen {
		if end > b.openUntil {
			end = b.openUntil
		}
		if end > b.openedAt {
			b.unavail += end - b.openedAt
		}
	}
}

func (b *Breaker) open(now float64) {
	b.state = BreakerOpen
	b.openedAt = now
	b.openUntil = now + b.OpenCycles
	b.opens++
	b.reset()
}

// reset clears both trip conditions so a freshly closed (or freshly opened)
// breaker judges the replica on post-transition outcomes only.
func (b *Breaker) reset() {
	b.consec = 0
	b.probeOK = 0
	b.ringIdx = 0
	b.ringFill = 0
	b.ringFails = 0
}

func (b *Breaker) record(fail bool) {
	if b.Window <= 0 {
		return
	}
	if b.ring == nil {
		b.ring = make([]bool, b.Window)
	}
	if b.ringFill == b.Window {
		if b.ring[b.ringIdx] {
			b.ringFails--
		}
	} else {
		b.ringFill++
	}
	b.ring[b.ringIdx] = fail
	if fail {
		b.ringFails++
	}
	b.ringIdx++
	if b.ringIdx == b.Window {
		b.ringIdx = 0
	}
}

func (b *Breaker) windowTripped() bool {
	return b.Window > 0 && b.ErrorRate > 0 && b.ringFill >= b.Window &&
		float64(b.ringFails)/float64(b.ringFill) >= b.ErrorRate
}
