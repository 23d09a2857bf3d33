package zstdlite

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"testing"

	"cdpu/internal/fse"
	"cdpu/internal/huffman"
)

// FuzzDecompress asserts the frame decode paths' robustness contract on
// arbitrary bytes: no panics, deterministic results, declared content size
// honored on success, the size limit enforced before allocation, and the
// streaming Reader agreeing with Decode — the same bytes wherever Decode
// succeeds, and no failure Decode does not share (the Reader may accept more:
// it stops at the last block, and bytes after a frame are not its business).
func FuzzDecompress(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{'Z', 'S', 'L', '1'})
	f.Add(Encode(nil))
	f.Add(Encode([]byte("sequences of words, sequences of words")))
	f.Add(Encode(bytes.Repeat([]byte{0x42}, 1024)))
	chk, _ := NewEncoder(Params{Checksum: true})
	if chk != nil {
		f.Add(chk.Encode([]byte("checksummed frame checksummed frame")))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decode(data)
		streamed, serr := io.ReadAll(NewReader(bytes.NewReader(data), nil))
		if err == nil && (serr != nil || !bytes.Equal(streamed, out)) {
			t.Fatalf("Decode gave %d bytes, the Reader %d (err %v)", len(out), len(streamed), serr)
		}
		if err != nil {
			return
		}
		if info, _, lerr := parseFrameHeader(data); lerr == nil && info.ContentSize >= 0 && len(out) != info.ContentSize {
			t.Fatalf("decoded %d bytes, frame declares %d", len(out), info.ContentSize)
		}
		out2, err2 := Decode(data)
		if err2 != nil || !bytes.Equal(out, out2) {
			t.Fatalf("non-deterministic decode: err2=%v", err2)
		}
		if limited, lerr := DecodeLimited(data, 64); lerr == nil && len(limited) > 64 {
			t.Fatalf("DecodeLimited(64) returned %d bytes", len(limited))
		}
	})
}

// FuzzSizeOnlyMatchesFull is TestSizeOnlyMatchesFullLayout over fuzzed
// payloads and parameters: a size-only frame has the full frame's length and
// an equal Plan, and the full frame round-trips. Size-only mode histograms
// literals from the source and sizes the three code streams in one walk, so
// this holds its layout to the coders it skips. Out-of-range parameters wrap
// into the range Params.Validate accepts (0 keeps the default).
func FuzzSizeOnlyMatchesFull(f *testing.F) {
	payloads := planPayloads(f)
	names := make([]string, 0, len(payloads))
	for name := range payloads {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f.Add(payloads[name], 0, 0, 0, 0, false)
	}
	f.Add(payloads["mixed"], 0, 0, 0, 0, true)
	f.Add(payloads["mixed"], -3, 0, 0, 0, false)
	f.Add(payloads["text-3block"], 12, 22, 10, 12, false)
	f.Add(payloads["noise-small"], 22, 10, 5, 8, false)
	// The last parameter set's two encoders are reused, as the replays reuse
	// theirs; a new set replaces them, so memory stays bounded.
	var last Params
	var full, sizeOnly *Encoder
	f.Fuzz(func(t *testing.T, data []byte, level, windowLog, tableLog, huffMaxBits int, disableFSE bool) {
		p := Params{
			Level:       wrap(level, MinLevel, MaxLevel),
			WindowLog:   wrap(windowLog, MinWindowLog, MaxWindowLog),
			TableLog:    wrap(tableLog, fse.MinTableLog, fse.MaxTableLog),
			HuffMaxBits: wrap(huffMaxBits, 8, huffman.MaxBitsLimit),
			DisableFSE:  disableFSE,
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("wrapped params %+v: %v", p, err)
		}
		if full == nil || !reflect.DeepEqual(p, last) {
			var err error
			if full, err = NewEncoder(p); err != nil {
				t.Fatalf("NewEncoder(%+v): %v", p, err)
			}
			if sizeOnly, err = NewEncoder(p); err != nil {
				t.Fatalf("NewEncoder(%+v): %v", p, err)
			}
			sizeOnly.SetSizeOnly(true)
			last = p
		}
		fullFrame, fullPlan := full.AppendEncodeWithPlan(nil, data)
		soFrame, soPlan := sizeOnly.AppendEncodeWithPlan(nil, data)
		if len(soFrame) != len(fullFrame) {
			t.Fatalf("%+v: size-only frame %d bytes, full frame %d", p, len(soFrame), len(fullFrame))
		}
		if !reflect.DeepEqual(soPlan, fullPlan) {
			t.Fatalf("%+v: size-only plan diverges from full plan:\n got %+v\nwant %+v", p, soPlan, fullPlan)
		}
		dec, err := Decode(fullFrame)
		if err != nil {
			t.Fatalf("%+v: full frame does not decode: %v", p, err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%+v: full frame round trip mismatch", p)
		}
	})
}

// wrap maps v into [lo, hi] by modular reduction, keeping 0 (the default).
func wrap(v, lo, hi int) int {
	if v == 0 || (v >= lo && v <= hi) {
		return v
	}
	n := hi - lo + 1
	return lo + ((v-lo)%n+n)%n
}
