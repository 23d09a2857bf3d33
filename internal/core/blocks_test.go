package core

import (
	"fmt"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// knownBlocks is the closed set of attribution names: a charge against a name
// outside blockOrder would silently escape BlockSum and break the invariant,
// so the oracle below checks membership too.
func knownBlocks() map[string]bool {
	m := make(map[string]bool, len(blockOrder))
	for _, b := range blockOrder {
		m[b] = true
	}
	return m
}

// TestBlockStringBreaksTiesByBlockOrder holds BlockString to one rendering:
// blocks with equal cycles print in blockOrder, not in map order.
func TestBlockStringBreaksTiesByBlockOrder(t *testing.T) {
	r := &Result{Blocks: map[string]float64{BlockLZ77: 7, BlockStream: 7, BlockInvocation: 7, BlockHuff: 9}}
	want := fmt.Sprintf("%-14s %12.0f cycles\n", BlockHuff, 9.0)
	for _, b := range []string{BlockInvocation, BlockStream, BlockLZ77} {
		want += fmt.Sprintf("%-14s %12.0f cycles\n", b, 7.0)
	}
	for i := 0; i < 100; i++ {
		if got := r.BlockString(); got != want {
			t.Fatalf("call %d:\n%s\nwant\n%s", i, got, want)
		}
	}
}

// cornerConfigs mirrors the DSE corners the experiments sweep (SRAM and
// speculation extremes, the fig15 worst case) so the invariant is exercised
// where the timing model takes its most different paths.
func cornerConfigs(op comp.Op) []Config {
	var out []Config
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, sram := range []int{2 << 10, 64 << 10} {
			cfg := Config{Algo: algo, Op: op, HistorySRAM: sram}
			if algo == comp.ZStd {
				for _, spec := range []int{4, 32} {
					c := cfg
					c.Speculation = spec
					out = append(out, c)
				}
			} else {
				out = append(out, cfg)
			}
		}
	}
	return out
}

// checkBlockInvariant asserts the standing oracle: every charged name is a
// known block, and the canonical-order sum of Blocks equals Cycles bit-exactly
// (== on float64, no tolerance).
func checkBlockInvariant(t *testing.T, label string, res *Result) {
	t.Helper()
	known := knownBlocks()
	for name := range res.Blocks {
		if !known[name] {
			t.Errorf("%s: unknown block %q escapes the attribution", label, name)
		}
	}
	if sum := res.BlockSum(); sum != res.Cycles {
		t.Errorf("%s: sum(Blocks) = %v != Cycles = %v (diff %g)", label, sum, res.Cycles, sum-res.Cycles)
	}
	if res.StreamCycles < res.Blocks[BlockStream] {
		t.Errorf("%s: exposed stream %v exceeds full occupancy %v", label, res.Blocks[BlockStream], res.StreamCycles)
	}
}

// TestBlockSumInvariantAcrossCorners is the per-block correctness oracle for
// every future timing change: for every DSE corner config × placement, in
// both directions, the attribution must sum to Cycles bit-exactly.
func TestBlockSumInvariantAcrossCorners(t *testing.T) {
	data := corpus.Generate(corpus.Log, 96<<10, 91)
	snapEnc := snappy.Encode(data)
	zstdEnc := zstdlite.Encode(data)
	for _, p := range memsys.Placements {
		for _, cfg := range cornerConfigs(comp.Compress) {
			cfg.Placement = p
			c := mustCompressor(t, cfg)
			res, err := c.Compress(data)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			checkBlockInvariant(t, cfg.Name(), res)
		}
		for _, cfg := range cornerConfigs(comp.Decompress) {
			cfg.Placement = p
			d := mustDecompressor(t, cfg)
			enc := snapEnc
			if cfg.Algo == comp.ZStd {
				enc = zstdEnc
			}
			res, err := d.Decompress(enc)
			if err != nil {
				t.Fatalf("%s: %v", cfg.Name(), err)
			}
			checkBlockInvariant(t, cfg.Name(), res)
		}
	}
}

// TestTracingLeavesCyclesIdentical pins the zero-perturbation guarantee:
// enabling tracing changes no modeled number, only attaches Spans, and the
// spans tile the call exactly (exec spans sum to the attribution, the stream
// span carries the full occupancy).
func TestTracingLeavesCyclesIdentical(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 48<<10, 92)
	enc := zstdlite.Encode(data)
	for _, p := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
		cfg := Config{Algo: comp.ZStd, Placement: p}
		plain := mustDecompressor(t, cfg)
		traced := mustDecompressor(t, cfg)
		traced.SetTracing(true)
		rp, err := plain.Decompress(enc)
		if err != nil {
			t.Fatal(err)
		}
		rt, err := traced.Decompress(enc)
		if err != nil {
			t.Fatal(err)
		}
		if rp.Cycles != rt.Cycles || rp.StreamCycles != rt.StreamCycles {
			t.Errorf("%s: tracing changed cycles: %v/%v vs %v/%v", p, rp.Cycles, rp.StreamCycles, rt.Cycles, rt.StreamCycles)
		}
		if len(rp.Spans) != 0 {
			t.Errorf("%s: untraced call grew %d spans", p, len(rp.Spans))
		}
		if len(rt.Spans) == 0 {
			t.Fatalf("%s: traced call has no spans", p)
		}
		checkBlockInvariant(t, p.String(), rt)
		// The span timeline must reproduce the attribution: per-block span
		// durations sum to Blocks (the stream span carries StreamCycles, its
		// exposed residue being the attribution entry).
		perBlock := map[string]float64{}
		for _, s := range rt.Spans {
			perBlock[s.Block] += s.Dur
		}
		for name, want := range rt.Blocks {
			got := perBlock[name]
			if name == BlockStream {
				want = rt.StreamCycles
			}
			if diff := got - want; diff > 1e-6 || diff < -1e-6 {
				t.Errorf("%s: block %s spans sum to %v, want %v", p, name, got, want)
			}
		}
		// Wall-clock layout: invocation first, first-access second, nothing
		// before cycle 0.
		if rt.Spans[0].Block != BlockInvocation || rt.Spans[0].Start != 0 {
			t.Errorf("%s: first span = %+v, want invocation at 0", p, rt.Spans[0])
		}
		if rt.Spans[1].Block != BlockFirstAccess {
			t.Errorf("%s: second span = %+v, want first-access", p, rt.Spans[1])
		}
		for _, s := range rt.Spans {
			if s.Start < 0 || s.Dur < 0 {
				t.Errorf("%s: negative span %+v", p, s)
			}
		}
	}
}

// TestCompressorTracing covers the encode direction's span path.
func TestCompressorTracing(t *testing.T) {
	data := corpus.Generate(corpus.Text, 32<<10, 93)
	cfg := Config{Algo: comp.ZStd}
	c := mustCompressor(t, cfg)
	c.SetTracing(true)
	res, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Spans) == 0 {
		t.Fatal("traced compression produced no spans")
	}
	checkBlockInvariant(t, "zstd-compress", res)
	c.SetTracing(false)
	res2, err := c.Compress(data)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Cycles != res.Cycles {
		t.Errorf("tracing toggled cycles: %v vs %v", res2.Cycles, res.Cycles)
	}
	if len(res2.Spans) != 0 {
		t.Error("tracing off still produced spans")
	}
}
