package fault

import "testing"

func TestLifecycleDeterminism(t *testing.T) {
	l := &Lifecycle{Seed: 42, Rate: 0.3}
	for replica := 0; replica < 4; replica++ {
		for call := 0; call < 2000; call++ {
			k1, ok1 := l.State(replica, call)
			k2, ok2 := l.State(replica, call)
			if k1 != k2 || ok1 != ok2 {
				t.Fatalf("State(%d,%d) not deterministic: (%v,%v) vs (%v,%v)",
					replica, call, k1, ok1, k2, ok2)
			}
		}
	}
}

func TestLifecycleEventShape(t *testing.T) {
	l := &Lifecycle{Seed: 7, Rate: 0.5, EpochCalls: 128, MeanEventCalls: 32}
	events := 0
	for replica := 0; replica < 8; replica++ {
		for epoch := 0; epoch < 64; epoch++ {
			kind, start, end, ok := l.Event(replica, epoch)
			if !ok {
				continue
			}
			events++
			if start < epoch*128 || start >= (epoch+1)*128 {
				t.Fatalf("event start %d outside epoch %d", start, epoch)
			}
			if length := end - start; length < 1 || length > 128 {
				t.Fatalf("event length %d outside [1, EpochCalls]", length)
			}
			if kind != LifeCrash && kind != LifeHang && kind != LifeBrownout {
				t.Fatalf("unexpected kind %v", kind)
			}
		}
	}
	// Rate 0.5 over 8*64 = 512 (replica, epoch) cells: expect roughly half hit.
	if events < 150 || events > 400 {
		t.Fatalf("event count %d wildly off a 0.5 rate over 512 cells", events)
	}
}

func TestLifecycleStateMatchesEvents(t *testing.T) {
	// State must be exactly the union of event windows (earlier-started wins
	// on overlap).
	l := &Lifecycle{Seed: 99, Rate: 0.4, EpochCalls: 64, MeanEventCalls: 48}
	const replicas, calls = 3, 4096
	for replica := 0; replica < replicas; replica++ {
		// Brute-force cover from events.
		type win struct {
			kind  LifeKind
			start int
		}
		cover := make(map[int]win)
		for epoch := 0; epoch <= calls/64; epoch++ {
			kind, start, end, ok := l.Event(replica, epoch)
			if !ok {
				continue
			}
			for c := start; c < end && c < calls; c++ {
				if w, dup := cover[c]; !dup || start < w.start {
					cover[c] = win{kind, start}
				}
			}
		}
		for call := 0; call < calls; call++ {
			kind, ok := l.State(replica, call)
			w, want := cover[call]
			if ok != want || (ok && kind != w.kind) {
				t.Fatalf("replica %d call %d: State=(%v,%v), events say (%v,%v)",
					replica, call, kind, ok, w.kind, want)
			}
		}
	}
}

func TestLifecycleKindsFilter(t *testing.T) {
	l := &Lifecycle{Seed: 5, Rate: 0.9, Kinds: []LifeKind{LifeBrownout}}
	for replica := 0; replica < 4; replica++ {
		for call := 0; call < 4000; call++ {
			if kind, ok := l.State(replica, call); ok && kind != LifeBrownout {
				t.Fatalf("kinds filter violated: got %v", kind)
			}
		}
	}
}

func TestLifecycleNilAndZero(t *testing.T) {
	var l *Lifecycle
	if _, ok := l.State(0, 0); ok {
		t.Fatal("nil lifecycle reported an event")
	}
	if l.AnyBrownoutRange(0, 4, 0) {
		t.Fatal("nil lifecycle reported a brownout")
	}
	z := &Lifecycle{}
	if _, ok := z.State(0, 0); ok {
		t.Fatal("zero-rate lifecycle reported an event")
	}
}

func TestLifecycleAnyBrownout(t *testing.T) {
	l := &Lifecycle{Seed: 11, Rate: 0.3}
	found := false
	for call := 0; call < 5000 && !found; call++ {
		want := false
		for r := 0; r < 4; r++ {
			if kind, ok := l.State(r, call); ok && kind == LifeBrownout {
				want = true
			}
		}
		if got := l.AnyBrownoutRange(0, 4, call); got != want {
			t.Fatalf("AnyBrownoutRange(0,4,%d)=%v, per-replica states say %v", call, got, want)
		}
		found = found || want
	}
	if !found {
		t.Fatal("no brownout in 5000 calls at rate 0.3 — seed or rate handling broken")
	}
}

func TestLifeKindString(t *testing.T) {
	if LifeCrash.String() != "crash" || LifeHang.String() != "hang" || LifeBrownout.String() != "brownout" {
		t.Fatal("LifeKind strings wrong")
	}
}
