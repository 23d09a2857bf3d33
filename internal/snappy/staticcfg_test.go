package snappy

import (
	"bytes"
	"testing"

	"cdpu/internal/lz77"
)

// TestStaticConfigsConstruct pins down that the panic(err) guards in Encode
// and NewFrameWriter are unreachable: the default EncoderConfig (and every
// per-field default substitution withDefaults can produce) constructs
// without error.
func TestStaticConfigsConstruct(t *testing.T) {
	cfgs := []EncoderConfig{
		{},
		Defaults(),
		{TableEntries: 1 << 10},
		{Associativity: 4},
		{WindowSize: 1 << 12},
		{Hash: lz77.HashFibonacci},
		{SkipIncompressible: true},
	}
	for i, cfg := range cfgs {
		if _, err := NewEncoder(cfg); err != nil {
			t.Errorf("config %d (%+v): NewEncoder failed: %v", i, cfg, err)
		}
	}
}

// TestPackageEncodeNeverPanics drives the panic-guarded convenience paths.
func TestPackageEncodeNeverPanics(t *testing.T) {
	for _, src := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("ab"), 4096)} {
		enc := Encode(src)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !bytes.Equal(dec, src) {
			t.Fatalf("round trip mismatch: %d bytes in, %d out", len(src), len(dec))
		}
	}
}
