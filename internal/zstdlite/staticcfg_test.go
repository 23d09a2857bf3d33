package zstdlite

import (
	"bytes"
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
