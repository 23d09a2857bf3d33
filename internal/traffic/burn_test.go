package traffic

import (
	"math"
	"testing"
)

func TestBurnWindowRate(t *testing.T) {
	w := NewBurnWindow(1e6)
	if _, ok := w.Rate(0.01); ok {
		t.Fatal("empty window reported a rate")
	}
	// 6 good + 2 bad inside one window: bad fraction 0.25, burn 25x a 1% budget.
	for i := 0; i < 8; i++ {
		w.Observe(float64(i)*1e5, i < 2)
	}
	r, ok := w.Rate(0.01)
	if !ok || math.Abs(r-25) > 1e-9 {
		t.Fatalf("rate %v ready=%v, want 25", r, ok)
	}
	// A full window of silence later, the old events have expired.
	w.Observe(3e6, false)
	if _, ok := w.Rate(0.01); ok {
		t.Fatal("expired window still reported a rate")
	}
}

func TestBurnWindowGradualExpiry(t *testing.T) {
	w := NewBurnWindow(8e5) // bucket = 1e5
	for i := 0; i < 8; i++ {
		w.Observe(float64(i)*1e5, true)
	}
	r, _ := w.Rate(1)
	if r != 1 {
		t.Fatalf("all-bad burn %v, want 1", r)
	}
	// Advancing half a window retires the oldest half.
	for i := 8; i < 12; i++ {
		w.Observe(float64(i)*1e5, false)
	}
	r, ok := w.Rate(1)
	if !ok || r != 0.5 {
		t.Fatalf("half-retired burn %v ready=%v, want 0.5", r, ok)
	}
}

func TestBurnConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		b    BurnConfig
		ok   bool
	}{
		{"zero", BurnConfig{}, true},
		{"enabled defaults", BurnConfig{TopK: 16}, true},
		{"enabled full", BurnConfig{TopK: 8, ReservoirSize: 4, FastWindowCycles: 1e6, SlowWindowCycles: 1e7}, true},
		{"negative topk", BurnConfig{TopK: -1}, false},
		{"knobs without topk", BurnConfig{ReservoirSize: 4}, false},
		{"negative reservoir", BurnConfig{TopK: 4, ReservoirSize: -1}, false},
		{"NaN fast window", BurnConfig{TopK: 4, FastWindowCycles: math.NaN()}, false},
		{"negative slow window", BurnConfig{TopK: 4, SlowWindowCycles: -2}, false},
	}
	for _, tc := range cases {
		err := tc.b.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validated: %+v", tc.name, tc.b)
		}
	}
	if (BurnConfig{}).Enabled() {
		t.Fatal("zero BurnConfig must be disabled")
	}
}

// TestBurnTrackerAlertEdge drives one gold tenant into a sustained bad spell
// and checks the multi-window alert is edge-triggered: one alert per
// excursion, not one per bad call.
func TestBurnTrackerAlertEdge(t *testing.T) {
	trk := NewBurnTracker(BurnConfig{TopK: 4}, 7)
	at := 0.0
	for i := 0; i < 40; i++ {
		at += 1e4
		trk.Observe(at, 1, 0, true)
	}
	if a := trk.Alerts(); a[0] != 1 || a[1] != 0 || a[2] != 0 {
		t.Fatalf("alerts after one excursion: %v, want [1 0 0]", a)
	}
	// A long healthy stretch clears both windows and re-arms the detector.
	for i := 0; i < 40; i++ {
		at += 1e6
		trk.Observe(at, 1, 0, false)
	}
	if a := trk.Alerts(); a[0] != 1 {
		t.Fatalf("healthy stretch raised alerts: %v", a)
	}
	for i := 0; i < 40; i++ {
		at += 1e4
		trk.Observe(at, 1, 0, true)
	}
	if a := trk.Alerts(); a[0] != 2 {
		t.Fatalf("alerts after second excursion: %v, want 2", a)
	}
}

// TestBurnTrackerSampling pins the fixed-size sampled-tenant design: top-K
// ranks are always tracked, the tail is reservoir-sampled to the configured
// size, and the admitted set is a pure function of the seed and arrival order.
func TestBurnTrackerSampling(t *testing.T) {
	run := func(seed int64) ([NumClasses]int, int) {
		trk := NewBurnTracker(BurnConfig{TopK: 4, ReservoirSize: 3}, seed)
		at := 0.0
		for i := 0; i < 600; i++ {
			at += 5e3
			rank := 1 + (i*37)%200 // mixes top ranks and a wide tail
			class := 2
			if rank <= 4 {
				class = 0
			}
			trk.Observe(at, rank, class, i%2 == 0)
		}
		return trk.Alerts(), len(trk.top) + len(trk.res)
	}
	a1, n1 := run(7)
	a2, n2 := run(7)
	if a1 != a2 || n1 != n2 {
		t.Fatalf("tracker not deterministic: %v/%d vs %v/%d", a1, n1, a2, n2)
	}
	if n1 > 4+3 {
		t.Fatalf("tracked %d tenants, want <= TopK+ReservoirSize = 7", n1)
	}
	if n1 < 7 {
		t.Fatalf("tracked %d tenants with 200 distinct offered, want the full 7", n1)
	}
}

// TestBurnTrackerUntrackedDropped checks tail tenants outside the reservoir
// cost nothing and raise nothing.
func TestBurnTrackerUntrackedDropped(t *testing.T) {
	trk := NewBurnTracker(BurnConfig{TopK: 1, ReservoirSize: 1}, 3)
	at := 0.0
	for i := 0; i < 1000; i++ {
		at += 1e4
		trk.Observe(at, 2+i, 2, true) // a parade of distinct tail tenants
	}
	if n := len(trk.top) + len(trk.res); n != 2 {
		t.Fatalf("tracked %d, want 2 (top-1 + 1 reservoir slot)", n)
	}
	// Every tail tenant was seen once; no window ever accumulates the sample
	// floor, so no alert can fire.
	if a := trk.Alerts(); a != ([NumClasses]int{}) {
		t.Fatalf("alerts from single-call tenants: %v", a)
	}
}
