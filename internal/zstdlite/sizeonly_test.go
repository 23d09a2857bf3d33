package zstdlite

import (
	"bytes"
	"reflect"
	"testing"

	"cdpu/internal/corpus"
)

// TestSizeOnlyMatchesFullLayout is the size-only fast path's differential
// proof: across the param and payload spread, a size-only encode produces a
// frame of exactly the full encoder's byte length with an identical Plan —
// the two facts the planned replay path consumes. The payload bytes differ
// (entropy streams are zeros), which is the point.
func TestSizeOnlyMatchesFullLayout(t *testing.T) {
	paramSets := map[string]Params{
		"default":  {},
		"nofse":    {DisableFSE: true},
		"checksum": {Checksum: true},
		"fast":     {Level: -3},
		"deep":     {Level: 12, WindowLog: 22, TableLog: 10, HuffMaxBits: 12},
	}
	for pname, params := range paramSets {
		for name, payload := range planPayloads(t) {
			full, err := NewEncoder(params)
			if err != nil {
				t.Fatalf("%s: NewEncoder: %v", pname, err)
			}
			so, err := NewEncoder(params)
			if err != nil {
				t.Fatalf("%s: NewEncoder: %v", pname, err)
			}
			so.SetSizeOnly(true)
			fullFrame, fullPlan := full.AppendEncodeWithPlan(nil, payload)
			soFrame, soPlan := so.AppendEncodeWithPlan(nil, payload)
			if len(soFrame) != len(fullFrame) {
				t.Errorf("%s/%s: size-only frame %d bytes, full frame %d", pname, name, len(soFrame), len(fullFrame))
				continue
			}
			if !reflect.DeepEqual(soPlan, fullPlan) {
				t.Errorf("%s/%s: size-only plan diverges from full plan:\n got %+v\nwant %+v", pname, name, soPlan, fullPlan)
			}
			// The full frame must still round-trip: the layout being compared
			// against is a real, decodable frame.
			dec, err := Decode(fullFrame)
			if err != nil {
				t.Fatalf("%s/%s: full frame does not decode: %v", pname, name, err)
			}
			if !bytes.Equal(dec, payload) {
				t.Fatalf("%s/%s: full frame round trip mismatch", pname, name)
			}
		}
	}
}

// TestSizeOnlyToggleRestoresFullEncoding pins the pooled-encoder contract:
// after SetSizeOnly(false), the same encoder emits decodable frames again, of
// the same length it emitted in size-only mode.
func TestSizeOnlyToggleRestoresFullEncoding(t *testing.T) {
	enc, err := NewEncoder(Params{})
	if err != nil {
		t.Fatal(err)
	}
	payload := planPayloads(t)["mixed"]
	enc.SetSizeOnly(true)
	soFrame := enc.AppendEncode(nil, payload)
	enc.SetSizeOnly(false)
	fullFrame := enc.AppendEncode(nil, payload)
	if len(soFrame) != len(fullFrame) {
		t.Fatalf("size-only frame %d bytes, full frame %d after toggle", len(soFrame), len(fullFrame))
	}
	dec, err := Decode(fullFrame)
	if err != nil {
		t.Fatalf("frame after toggling size-only off does not decode: %v", err)
	}
	if !bytes.Equal(dec, payload) {
		t.Fatal("round trip mismatch after toggling size-only off")
	}
}

// BenchmarkEncodeSizeOnly measures the size-only encode the replays and the
// DSE compression traces run: the frame-wide parse, block carving and the
// entropy stage's sizing, per corpus kind and payload size.
func BenchmarkEncodeSizeOnly(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"4K", 4 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}
	for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Skewed, corpus.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			for _, size := range sizes {
				b.Run(size.name, func(b *testing.B) {
					enc, err := NewEncoder(Params{})
					if err != nil {
						b.Fatal(err)
					}
					enc.SetSizeOnly(true)
					src := corpus.Generate(kind, size.n, 6)
					dst := enc.AppendEncode(nil, src)
					b.SetBytes(int64(len(src)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						dst = enc.AppendEncode(dst[:0], src)
					}
				})
			}
		})
	}
}
