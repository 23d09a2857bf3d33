package zstdlite

import (
	"math/rand"
	"testing"
)

// planPayloads builds a spread of payload shapes: compressible text-like,
// RLE runs, incompressible noise, multi-block sizes, and edge sizes.
func planPayloads(t testing.TB) map[string][]byte {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	textish := func(n int) []byte {
		words := []string{"the ", "quick ", "brown ", "fox ", "jumps ", "over ", "lazy ", "dog "}
		out := make([]byte, 0, n)
		for len(out) < n {
			out = append(out, words[rng.Intn(len(words))]...)
		}
		return out[:n]
	}
	noise := func(n int) []byte {
		out := make([]byte, n)
		rng.Read(out)
		return out
	}
	runs := func(n int) []byte {
		out := make([]byte, 0, n)
		for len(out) < n {
			b := byte(rng.Intn(4))
			r := 1 + rng.Intn(300)
			for i := 0; i < r && len(out) < n; i++ {
				out = append(out, b)
			}
		}
		return out
	}
	return map[string][]byte{
		"empty":        nil,
		"one":          {0x41},
		"rle":          runs(4096),
		"rle-block":    runs(MaxBlockSize + 1000),
		"text-small":   textish(512),
		"text-1block":  textish(64 << 10),
		"text-3block":  textish(3*MaxBlockSize + 17),
		"noise-small":  noise(700),
		"noise-1block": noise(96 << 10),
		"mixed":        append(append(textish(40<<10), noise(40<<10)...), runs(40<<10)...),
	}
}

// TestPlanMatchesInspect pins the encoder-recorded Plan to exactly what
// Inspect parses back from the same frame: the planned decompress path in
// internal/core depends on this equivalence to skip the parse entirely.
func TestPlanMatchesInspect(t *testing.T) {
	paramSets := map[string]Params{
		"default":  {},
		"nofse":    {DisableFSE: true},
		"checksum": {Checksum: true},
		"fast":     {Level: -3},
		"deep":     {Level: 12, WindowLog: 22, TableLog: 10, HuffMaxBits: 12},
	}
	for pname, params := range paramSets {
		for name, payload := range planPayloads(t) {
			enc, err := NewEncoder(params)
			if err != nil {
				t.Fatalf("%s: NewEncoder: %v", pname, err)
			}
			// Encode a throwaway payload first so the plan under test comes
			// from warmed, reused scratch — the production shape.
			enc.AppendEncode(nil, []byte("warmup payload for scratch reuse"))
			frame, plan := enc.AppendEncodeWithPlan(nil, payload)
			info, err := Inspect(frame)
			if err != nil {
				t.Fatalf("%s/%s: Inspect: %v", pname, name, err)
			}
			comparePlan(t, pname+"/"+name, plan, info, len(payload))
		}
	}
}

func comparePlan(t *testing.T, name string, plan *Plan, info *FrameInfo, contentSize int) {
	t.Helper()
	if plan.ContentSize != contentSize || info.ContentSize != contentSize {
		t.Errorf("%s: content size plan=%d inspect=%d want %d", name, plan.ContentSize, info.ContentSize, contentSize)
	}
	if plan.WindowLog != info.WindowLog {
		t.Errorf("%s: window log plan=%d inspect=%d", name, plan.WindowLog, info.WindowLog)
	}
	if plan.NeedsDict != info.NeedsDict || plan.DictID != info.DictID ||
		plan.HasChecksum != info.HasChecksum || plan.Checksum != info.Checksum {
		t.Errorf("%s: header flags plan=%+v inspect=%+v", name, *plan, *info)
	}
	if len(plan.Blocks) != len(info.Blocks) {
		t.Fatalf("%s: %d planned blocks, %d inspected", name, len(plan.Blocks), len(info.Blocks))
	}
	for i := range plan.Blocks {
		pb, ib := &plan.Blocks[i], &info.Blocks[i]
		if pb.Type != ib.Type || pb.RawSize != ib.RawSize {
			t.Errorf("%s block %d: type/raw plan=(%d,%d) inspect=(%d,%d)", name, i, pb.Type, pb.RawSize, ib.Type, ib.RawSize)
		}
		if !pb.IsCompressed() {
			continue
		}
		if pb.CompSize != ib.CompSize {
			t.Errorf("%s block %d: comp size plan=%d inspect=%d", name, i, pb.CompSize, ib.CompSize)
		}
		if pb.LitMode != ib.LitMode || pb.LitCount != ib.LitCount || pb.LitPayload != ib.LitPayload {
			t.Errorf("%s block %d: literals plan=(%d,%d,%d) inspect=(%d,%d,%d)", name, i,
				pb.LitMode, pb.LitCount, pb.LitPayload, ib.LitMode, ib.LitCount, ib.LitPayload)
		}
		if pb.HuffMaxBits != ib.HuffMaxBits || pb.HuffLensN != ib.HuffLensN {
			t.Errorf("%s block %d: huffman plan=(%d,%d) inspect=(%d,%d)", name, i,
				pb.HuffMaxBits, pb.HuffLensN, ib.HuffMaxBits, ib.HuffLensN)
		}
		if pb.SeqModes != ib.SeqModes || pb.FSETableLogs != ib.FSETableLogs {
			t.Errorf("%s block %d: streams plan=(%v,%v) inspect=(%v,%v)", name, i,
				pb.SeqModes, pb.FSETableLogs, ib.SeqModes, ib.FSETableLogs)
		}
		if len(pb.Seqs) != len(ib.Seqs) || pb.NumSeqs != len(pb.Seqs) || ib.NumSeqs != len(ib.Seqs) {
			t.Errorf("%s block %d: %d planned seqs, %d inspected", name, i, len(pb.Seqs), len(ib.Seqs))
			continue
		}
		for j := range pb.Seqs {
			if pb.Seqs[j] != ib.Seqs[j] {
				t.Errorf("%s block %d seq %d: plan=%+v inspect=%+v", name, i, j, pb.Seqs[j], ib.Seqs[j])
			}
		}
	}
}

// TestAppendEncodeSteadyStateAllocs pins the warmed encode hot path (plan
// recording included) at zero allocations per call.
func TestAppendEncodeSteadyStateAllocs(t *testing.T) {
	enc, err := NewEncoder(Params{})
	if err != nil {
		t.Fatal(err)
	}
	payload := planPayloads(t)["mixed"]
	var dst []byte
	var plan *Plan
	for i := 0; i < 3; i++ { // warm all scratch
		dst, plan = enc.AppendEncodeWithPlan(dst[:0], payload)
	}
	allocs := testing.AllocsPerRun(20, func() {
		dst, plan = enc.AppendEncodeWithPlan(dst[:0], payload)
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendEncodeWithPlan: %v allocs/call, want 0", allocs)
	}
	_ = plan
}
