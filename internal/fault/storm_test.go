package fault

import (
	"math"
	"testing"
)

func TestStormDrawDeterministic(t *testing.T) {
	s := &Storm{Seed: 3, Rate: 0.3, MeanRepeats: 1.5}
	for call := 0; call < 500; call++ {
		k1, r1, h1 := s.Draw(call)
		k2, r2, h2 := s.Draw(call)
		if k1 != k2 || r1 != r2 || h1 != h2 {
			t.Fatalf("call %d: Draw not pure", call)
		}
		if m1, m2 := s.MutationSeed(call), s.MutationSeed(call); m1 != m2 {
			t.Fatalf("call %d: MutationSeed not pure", call)
		}
	}
}

func TestStormRateAndKinds(t *testing.T) {
	s := &Storm{Seed: 11, Rate: 0.1}
	const calls = 20000
	hits := 0
	seen := map[StormKind]int{}
	for call := 0; call < calls; call++ {
		kind, repeats, hit := s.Draw(call)
		if !hit {
			continue
		}
		hits++
		seen[kind]++
		if repeats != 1 {
			t.Fatalf("call %d: repeats %d with MeanRepeats 0", call, repeats)
		}
	}
	frac := float64(hits) / calls
	if math.Abs(frac-0.1) > 0.02 {
		t.Errorf("hit rate %.4f, want ~0.10", frac)
	}
	for _, k := range StormKinds {
		if seen[k] == 0 {
			t.Errorf("kind %v never drawn", k)
		}
	}

	// Restricting Kinds restricts draws.
	s = &Storm{Seed: 11, Rate: 0.2, Kinds: []StormKind{StormWatchdog}}
	for call := 0; call < 2000; call++ {
		if kind, _, hit := s.Draw(call); hit && kind != StormWatchdog {
			t.Fatalf("call %d: drew %v outside Kinds", call, kind)
		}
	}
}

func TestStormRepeatsBoundedAndScaled(t *testing.T) {
	s := &Storm{Seed: 5, Rate: 1, MeanRepeats: 2}
	total, hits := 0, 0
	for call := 0; call < 5000; call++ {
		_, repeats, hit := s.Draw(call)
		if !hit {
			t.Fatal("rate 1 storm missed a call")
		}
		if repeats < 1 || repeats > maxRepeats {
			t.Fatalf("repeats %d out of [1, %d]", repeats, maxRepeats)
		}
		total += repeats
		hits++
	}
	mean := float64(total) / float64(hits)
	if mean < 2.0 || mean > 4.0 {
		t.Errorf("mean repeats %.2f, want ~3 (1 + MeanRepeats)", mean)
	}
}

func TestStormNilAndZeroNeverHit(t *testing.T) {
	var nilStorm *Storm
	if _, _, hit := nilStorm.Draw(0); hit {
		t.Error("nil storm hit")
	}
	if _, _, hit := (&Storm{Seed: 1}).Draw(0); hit {
		t.Error("zero-rate storm hit")
	}
}

func TestStormKindStrings(t *testing.T) {
	for _, k := range StormKinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
}
