package zstdlite

import (
	"bytes"
	"reflect"
	"testing"
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

// TestLevelsSelectPairWalk holds the level table to lz77's fast path: levels
// 0 (the default, 3) to 9 parse with the two-way tagged shape walkPair
// serves, so an edit to lzConfig cannot drop them to walkAssoc unnoticed; the
// fast negative levels (one way) and levels from 10 (four and eight) do not.
// Which walk a Matcher runs shows only in the storage it allocated, a field
// this package cannot name: it is read by reflection, and a rename fails here.
func TestLevelsSelectPairWalk(t *testing.T) {
	for level := MinLevel; level <= MaxLevel; level++ {
		e, err := NewEncoder(Params{Level: level})
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		pairs := reflect.ValueOf(e.matcher).Elem().FieldByName("pairs")
		if !pairs.IsValid() {
			t.Fatal("lz77.Matcher has no field pairs: name walkPair's storage here")
		}
		if got, want := pairs.Len() > 0, level >= 0 && level <= 9; got != want {
			t.Errorf("level %d: walkPair selected %v, want %v (%+v)", level, got, want, Params{Level: level}.withDefaults().lzConfig())
		}
	}
}
