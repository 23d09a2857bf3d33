package zstdlite

import (
	"bytes"
	"reflect"
	"testing"

	"cdpu/internal/lz77"
)

// TestStaticParamsConstruct pins down that Encode's panic(err) guard is
// unreachable: the default Params (and each defaulted-field variant) build an
// encoder without error.
func TestStaticParamsConstruct(t *testing.T) {
	cfgs := []Params{
		{},
		{Level: 1},
		{Level: 19},
		{WindowLog: MinWindowLog},
		{WindowLog: MaxWindowLog},
		{DisableFSE: true},
	}
	for i, p := range cfgs {
		if _, err := NewEncoder(p); err != nil {
			t.Errorf("params %d (%+v): NewEncoder failed: %v", i, p, err)
		}
	}
	src := bytes.Repeat([]byte("defaults are always valid "), 256)
	dec, err := Decode(Encode(src))
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if !bytes.Equal(dec, src) {
		t.Fatal("round trip mismatch")
	}
}

// TestLevelsKeepPairShape holds the level table to lz77's fast path: levels 0
// (the default, 3) to 9 parse with a two-way tagged Fibonacci table keyed on
// four bytes, the shape lz77.NewMatcher serves with walkPair (lz77's
// TestWalkSelection owns that mapping), so an edit to lzConfig cannot drop
// them to walkAssoc unnoticed; the fast negative levels (one way) and levels
// from 10 (four and eight ways) have another shape.
func TestLevelsKeepPairShape(t *testing.T) {
	for level := MinLevel; level <= MaxLevel; level++ {
		cfg := Params{Level: level}.withDefaults().lzConfig()
		got := cfg.Associativity == 2 && cfg.Contents == lz77.ContentsOffsetAndTag &&
			cfg.Hash == lz77.HashFibonacci && cfg.MinMatch == 4
		if want := level >= 0 && level <= 9; got != want {
			t.Errorf("level %d: pair shape %v, want %v (%+v)", level, got, want, cfg)
		}
	}
}

// TestShapeNamesTheTable holds Shape to lzConfig: at any one window, two
// levels build the same LZ77 configuration exactly when they have the same
// Shape, and there are four. SetWindowLog must leave an encoder parsing as
// one built for the new window (TestSetWindowLogMatchesFresh).
func TestShapeNamesTheTable(t *testing.T) {
	seen := map[int]lz77.Config{}
	for level := MinLevel; level <= MaxLevel; level++ {
		cfg := Params{Level: level}.withDefaults().lzConfig()
		s := Shape(level)
		for other, oc := range seen {
			if (other == s) != (oc == cfg) {
				t.Errorf("level %d (shape %d) against shape %d: configs equal %v", level, s, other, oc == cfg)
			}
		}
		seen[s] = cfg
	}
	if len(seen) != Shapes || Shape(0) != Shape(3) {
		t.Errorf("%d shapes, want %d; Shape(0) %d, Shape(3) %d", len(seen), Shapes, Shape(0), Shape(3))
	}
}

// TestSetWindowLogMatchesFresh: one encoder per shape, its window set per
// frame, writes the frames and Plans of an encoder built for each (level,
// window), whatever window the previous frame had, the dictionary's usable
// tail included; a window outside the format is refused.
func TestSetWindowLogMatchesFresh(t *testing.T) {
	src := bytes.Repeat([]byte("the window is a per-frame setting; "), 300)
	src = append(src, src[:5000]...)
	dict := bytes.Repeat([]byte("dictionary bytes: window "), 100)
	for _, base := range []Params{{Level: 1}, {Level: -3}, {Level: 12, Dict: dict}} {
		reused, err := NewEncoder(base)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{MaxWindowLog, MinWindowLog, 0, 11, 17, MinWindowLog} {
			p := base
			p.WindowLog = w
			fresh, err := NewEncoder(p)
			if err != nil {
				t.Fatal(err)
			}
			want, wantPlan := fresh.AppendEncodeWithPlan(nil, src)
			if err := reused.SetWindowLog(w); err != nil {
				t.Fatal(err)
			}
			got, gotPlan := reused.AppendEncodeWithPlan(nil, src)
			if !bytes.Equal(got, want) || !reflect.DeepEqual(gotPlan, wantPlan) {
				t.Fatalf("%+v window %d: reused encoder differs from a fresh one (%d vs %d bytes)", base, w, len(got), len(want))
			}
		}
		if reused.SetWindowLog(MaxWindowLog+1) == nil || reused.SetWindowLog(MinWindowLog-1) == nil {
			t.Fatalf("%+v: a window outside [%d, %d] was accepted", base, MinWindowLog, MaxWindowLog)
		}
	}
}
