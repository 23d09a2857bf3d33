package resil

import (
	"math"
	"testing"
)

// TestBackoffSchedulePinned pins the exact jittered delays for a fixed seed:
// the schedule is part of the replay's determinism contract (Reports are
// byte-identical at any worker count), so any change to the mixing function,
// the jitter formula, or the cap behavior must show up here.
func TestBackoffSchedulePinned(t *testing.T) {
	p := Policy{MaxAttempts: 7, BackoffBaseCycles: 1000, BackoffMaxCycles: 16000, JitterFrac: 0.5}
	seed := BackoffSeed(42, 7)
	if seed != 0xa2bb8eaa5940f2c6 {
		t.Fatalf("BackoffSeed(42, 7) = %#x", seed)
	}
	want := []float64{
		915.75618923932961,
		1131.7261679189373,
		3637.9676538022873,
		6627.0587792503175,
		11182.722112760155,
		8495.2985235248198, // capped at 16000 nominal, jittered below retry 5's draw
	}
	for i, w := range want {
		if got := p.Backoff(seed, i+1); got != w {
			t.Errorf("Backoff(retry %d) = %.17g, want %.17g", i+1, got, w)
		}
	}
}

func TestBackoffJitterBounds(t *testing.T) {
	p := Policy{BackoffBaseCycles: 1000, BackoffMaxCycles: 64000, JitterFrac: 0.5}
	for call := 0; call < 200; call++ {
		seed := BackoffSeed(1, call)
		for r := 1; r <= 8; r++ {
			nominal := math.Min(64000, 1000*math.Pow(2, float64(r-1)))
			got := p.Backoff(seed, r)
			if got < nominal*0.5 || got >= nominal {
				t.Fatalf("call %d retry %d: delay %f outside [%f, %f)", call, r, got, nominal*0.5, nominal)
			}
		}
	}
}

func TestBackoffNoJitterIsExactExponential(t *testing.T) {
	p := Policy{BackoffBaseCycles: 500, BackoffMaxCycles: 4000}
	want := []float64{500, 1000, 2000, 4000, 4000}
	for i, w := range want {
		if got := p.Backoff(BackoffSeed(9, 3), i+1); got != w {
			t.Errorf("retry %d: %f, want %f", i+1, got, w)
		}
	}
	// Uncapped: keeps doubling.
	p.BackoffMaxCycles = 0
	if got := p.Backoff(1, 4); got != 4000 {
		t.Errorf("uncapped retry 4 = %f, want 4000", got)
	}
}

// TestBackoffUncappedStaysFinite is the regression test for the +Inf
// overflow: with BackoffMaxCycles == 0 the exponential used to overflow to
// +Inf around retry ~1100, and the replay layer rejects non-finite service
// times. The uncapped schedule must clamp to a finite ceiling instead.
func TestBackoffUncappedStaysFinite(t *testing.T) {
	p := Policy{BackoffBaseCycles: 2000}
	for _, retry := range []int{1, 64, 1024, 1100, 4096, 1 << 20, math.MaxInt32} {
		d := p.Backoff(BackoffSeed(3, 11), retry)
		if math.IsInf(d, 0) || math.IsNaN(d) || d < 0 {
			t.Fatalf("uncapped retry %d: non-finite delay %v", retry, d)
		}
		if d > uncappedBackoffCeiling {
			t.Fatalf("uncapped retry %d: delay %v above ceiling %v", retry, d, uncappedBackoffCeiling)
		}
	}
	// Jitter applies on top of the clamped value and must stay finite too.
	p.JitterFrac = 0.5
	for _, retry := range []int{1100, 1 << 16} {
		d := p.Backoff(BackoffSeed(3, 11), retry)
		if math.IsInf(d, 0) || math.IsNaN(d) || d <= 0 {
			t.Fatalf("uncapped jittered retry %d: bad delay %v", retry, d)
		}
	}
	// Below the ceiling the uncapped schedule is unchanged.
	if got := p.Backoff(1, 4); got <= 0 || got >= 16000 {
		t.Fatalf("uncapped retry 4 with jitter = %v, want (0, 16000)", got)
	}
	p.JitterFrac = 0
	if got := p.Backoff(1, 4); got != 16000 {
		t.Fatalf("uncapped retry 4 = %v, want 16000", got)
	}
	// A configured cap still wins over the overflow ceiling.
	p.BackoffMaxCycles = 64000
	if got := p.Backoff(1, 4096); got != 64000 {
		t.Fatalf("capped huge retry = %v, want 64000", got)
	}
}

func TestBackoffDeterministic(t *testing.T) {
	p := Policy{BackoffBaseCycles: 1000, JitterFrac: 1.0}
	for r := 1; r <= 5; r++ {
		a := p.Backoff(BackoffSeed(5, 77), r)
		b := p.Backoff(BackoffSeed(5, 77), r)
		if a != b {
			t.Fatalf("retry %d: %v != %v", r, a, b)
		}
	}
	// Distinct calls draw distinct jitter.
	if p.Backoff(BackoffSeed(5, 1), 1) == p.Backoff(BackoffSeed(5, 2), 1) {
		t.Error("distinct calls share jitter draw")
	}
}

func TestBackoffDegenerateInputs(t *testing.T) {
	var zero Policy
	if zero.Backoff(1, 1) != 0 {
		t.Error("zero policy has non-zero backoff")
	}
	p := Policy{BackoffBaseCycles: 1000}
	if p.Backoff(1, 0) != 0 || p.Backoff(1, -3) != 0 {
		t.Error("non-positive retry index has non-zero backoff")
	}
	// JitterFrac above 1 clamps rather than going negative.
	p = Policy{BackoffBaseCycles: 1000, JitterFrac: 5}
	if d := p.Backoff(BackoffSeed(2, 2), 1); d < 0 || d >= 1000 {
		t.Errorf("clamped jitter delay %f outside [0, 1000)", d)
	}
}

func TestQueueBound(t *testing.T) {
	cases := []struct {
		q, classes, priority, want int
	}{
		// No differentiation: unbounded queue, single class, top priority.
		{0, 3, 2, 0},
		{32, 0, 2, 32},
		{32, 1, 2, 32},
		{32, 3, 0, 32},
		// Three classes over Q=32: 32, 24, 16.
		{32, 3, 1, 24},
		{32, 3, 2, 16},
		// Out-of-range priority clamps to the lowest class.
		{32, 3, 9, 16},
		{32, 3, -1, 32},
		// Two classes: full and half.
		{10, 2, 1, 5},
		// Tiny queues never bound below one waiter.
		{1, 3, 2, 1},
		{2, 4, 3, 1},
	}
	for _, c := range cases {
		pol := Policy{MaxQueue: c.q, PriorityClasses: c.classes}
		if got := pol.QueueBound(c.priority); got != c.want {
			t.Errorf("QueueBound(q=%d, classes=%d, pri=%d) = %d, want %d",
				c.q, c.classes, c.priority, got, c.want)
		}
	}
	// Bounds are monotone non-increasing in priority: lower classes never get
	// more queue than higher ones.
	pol := Policy{MaxQueue: 57, PriorityClasses: 5}
	prev := pol.QueueBound(0)
	for pri := 1; pri < 7; pri++ {
		b := pol.QueueBound(pri)
		if b > prev || b < 1 {
			t.Fatalf("QueueBound(%d) = %d after %d (want monotone, >= 1)", pri, b, prev)
		}
		prev = b
	}
}
