package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// plannedTestData generates a kind-diverse payload set.
func plannedTestData() map[string][]byte {
	data := map[string][]byte{"empty": nil}
	rng := rand.New(rand.NewSource(7))
	for _, kind := range corpus.Kinds {
		size := 1 + rng.Intn(200<<10)
		data[kind.String()] = corpus.Generate(kind, size, rng.Int63())
	}
	return data
}

// TestDecompressPlannedMatchesDecompress pins the planned decompress path to
// the parse-based one, Result for Result: same Cycles, same per-block
// attribution, same output bytes, for both codecs on every placement, corpus
// kind and size. The parse-based side decodes the full frame; the planned side
// gets what the replay engine hands it, the size-only frame and its Plan. The
// engine depends on this equivalence to keep Reports byte-identical while
// skipping the frame parse and the reconstruction.
func TestDecompressPlannedMatchesDecompress(t *testing.T) {
	coder := comp.NewCoder()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		decs := make([]*Decompressor, len(memsys.Placements))
		for i, placement := range memsys.Placements {
			d, err := NewDecompressor(Config{Algo: algo, Placement: placement})
			if err != nil {
				t.Fatal(err)
			}
			decs[i] = d
		}
		for _, kind := range corpus.Kinds {
			for _, size := range []int{0, 64, 4 << 10, 1 << 20} {
				name := fmt.Sprintf("%v/%v/%d", algo, kind, size)
				content := corpus.Generate(kind, size, int64(size)+3)
				full, err := coder.AppendCompress(nil, algo, 0, 0, content)
				if err != nil {
					t.Fatalf("%s: compress: %v", name, err)
				}
				sizeOnly, plan, err := coder.AppendCompressSizeOnly(nil, algo, 0, 0, content)
				if err != nil {
					t.Fatalf("%s: size-only compress: %v", name, err)
				}
				if len(sizeOnly) != len(full) {
					t.Fatalf("%s: size-only frame %d bytes, full %d", name, len(sizeOnly), len(full))
				}
				for _, d := range decs {
					want, err := d.Decompress(full)
					if err != nil {
						t.Fatalf("%s: Decompress: %v", name, err)
					}
					got, err := d.DecompressPlanned(sizeOnly, plan, content)
					if err != nil {
						t.Fatalf("%s: DecompressPlanned: %v", name, err)
					}
					name := name + "/" + d.cfg.Placement.String()
					if got.Cycles != want.Cycles {
						t.Errorf("%s: planned cycles %v != parsed %v", name, got.Cycles, want.Cycles)
					}
					if !reflect.DeepEqual(got.Blocks, want.Blocks) {
						t.Errorf("%s: planned attribution %v != parsed %v", name, got.Blocks, want.Blocks)
					}
					if got.StreamCycles != want.StreamCycles {
						t.Errorf("%s: planned stream %v != parsed %v", name, got.StreamCycles, want.StreamCycles)
					}
					if !bytes.Equal(got.Output, want.Output) || !bytes.Equal(got.Output, content) {
						t.Errorf("%s: planned output differs from parsed output or content", name)
					}
					if len(content) > 0 && &got.Output[0] != &content[0] {
						t.Errorf("%s: planned output is a copy, not content itself", name)
					}
					if got.InputBytes != want.InputBytes || got.OutputBytes != want.OutputBytes ||
						got.UncompressedBytes != want.UncompressedBytes {
						t.Errorf("%s: planned sizes (%d,%d,%d) != parsed (%d,%d,%d)", name,
							got.InputBytes, got.OutputBytes, got.UncompressedBytes,
							want.InputBytes, want.OutputBytes, want.UncompressedBytes)
					}
				}
			}
		}
	}
}

// TestResultReuseMatchesFresh pins reuse-mode instances to fresh-allocation
// ones: identical cycles, attribution and output for compressors and
// decompressors of both algorithms, across repeated calls on one instance.
func TestResultReuseMatchesFresh(t *testing.T) {
	data := plannedTestData()
	names := make([]string, 0, len(data))
	for name := range data {
		names = append(names, name)
	}
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		cfg := Config{Algo: algo}
		cFresh, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cReuse, err := NewCompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cReuse.SetResultReuse(true)
		dFresh, err := NewDecompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dReuse, err := NewDecompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		dReuse.SetResultReuse(true)
		for _, name := range names {
			content := data[name]
			want, err := cFresh.Compress(content)
			if err != nil {
				t.Fatalf("%v/%s: fresh compress: %v", algo, name, err)
			}
			got, err := cReuse.Compress(content)
			if err != nil {
				t.Fatalf("%v/%s: reuse compress: %v", algo, name, err)
			}
			if got.Cycles != want.Cycles || !reflect.DeepEqual(got.Blocks, want.Blocks) ||
				!bytes.Equal(got.Output, want.Output) {
				t.Errorf("%v/%s: reuse compress result differs from fresh", algo, name)
			}
			dwant, err := dFresh.Decompress(want.Output)
			if err != nil {
				t.Fatalf("%v/%s: fresh decompress: %v", algo, name, err)
			}
			dgot, err := dReuse.Decompress(got.Output)
			if err != nil {
				t.Fatalf("%v/%s: reuse decompress: %v", algo, name, err)
			}
			if dgot.Cycles != dwant.Cycles || !reflect.DeepEqual(dgot.Blocks, dwant.Blocks) ||
				!bytes.Equal(dgot.Output, dwant.Output) {
				t.Errorf("%v/%s: reuse decompress result differs from fresh", algo, name)
			}
		}
	}
}

// TestPlannedDecompressSteadyStateAllocs pins the planned decompress hot
// path — size-only synthesis, plan in hand, result reuse on — at zero
// allocations per call once warmed, for both codecs.
func TestPlannedDecompressSteadyStateAllocs(t *testing.T) {
	coder := comp.NewCoder()
	content := corpus.Generate(corpus.Log, 64<<10, 11)
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		d, err := NewDecompressor(Config{Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		d.SetResultReuse(true)
		var enc []byte
		run := func() {
			out, p, err := coder.AppendCompressSizeOnly(enc[:0], algo, 0, 0, content)
			if err != nil {
				t.Fatal(err)
			}
			enc = out
			if _, err := d.DecompressPlanned(enc, p, content); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 3; i++ {
			run()
		}
		if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
			t.Errorf("%v: steady-state compress+planned-decompress: %v allocs/call, want 0", algo, allocs)
		}
	}
}

// literalsAt is lz77.AppendLiteralsAt for a stream that may lie: false if a
// literal run leaves src.
func literalsAt(src []byte, start int, seqs []lz77.Seq) ([]byte, bool) {
	var lits []byte
	pos := start
	for _, s := range seqs {
		if pos < 0 || pos+s.LitLen > len(src) {
			return nil, false
		}
		lits = append(lits, src[pos:pos+s.LitLen]...)
		pos += s.LitLen + s.MatchLen
	}
	return lits, true
}

// reconstructAndCompare is the plan check the planned path ran before
// lz77.VerifySeqs, kept as its oracle: gather each block's literals from
// content, replay the commands into a buffer, and compare the buffer with
// content. It additionally holds each ZStd block's commands to the block's
// RawSize, which the charges assume.
func reconstructAndCompare(plan comp.Plan, content []byte) bool {
	var out []byte
	replay := func(seqs []lz77.Seq, window, claimed int) bool {
		start := len(out)
		lits, ok := literalsAt(content, start, seqs)
		if !ok {
			return false
		}
		var err error
		out, err = lz77.AppendReconstruct(out, seqs, lits, window)
		return err == nil && len(out)-start == claimed
	}
	switch {
	case plan.Snappy != nil:
		if !replay(plan.Snappy.Seqs, 0, lz77.TotalLen(plan.Snappy.Seqs)) {
			return false
		}
	case plan.ZStd != nil:
		for i := range plan.ZStd.Blocks {
			b := &plan.ZStd.Blocks[i]
			if len(out)+b.RawSize > len(content) {
				return false
			}
			if !b.IsCompressed() {
				out = append(out, content[len(out):len(out)+b.RawSize]...)
			} else if !replay(b.Seqs, 1<<plan.ZStd.WindowLog, b.RawSize) {
				return false
			}
		}
	}
	return bytes.Equal(out, content)
}

// checkPlanVerdict holds DecompressPlanned to the oracle on one plan: accepted
// together, or rejected together and then as a corrupt-input DeviceError.
func checkPlanVerdict(t *testing.T, name string, d *Decompressor, plan comp.Plan, content []byte) (accepted bool) {
	t.Helper()
	want := reconstructAndCompare(plan, content)
	_, err := d.DecompressPlanned(nil, plan, content)
	if (err == nil) != want {
		t.Errorf("%s: planned path accepts=%v (%v), reconstruct-and-compare accepts=%v", name, err == nil, err, want)
	}
	var derr *DeviceError
	if err != nil && (!errors.As(err, &derr) || derr.Reason != "corrupt-input") {
		t.Errorf("%s: rejected as %v, want a corrupt-input DeviceError", name, err)
	}
	return err == nil
}

// planElements returns the command stream a mutation edits: the Snappy plan's
// elements, or the commands of the ZStd plan's last compressed block.
func planElements(p comp.Plan) *[]lz77.Seq {
	if p.Snappy != nil {
		return &p.Snappy.Seqs
	}
	for i := len(p.ZStd.Blocks) - 1; i >= 0; i-- {
		if b := &p.ZStd.Blocks[i]; b.IsCompressed() {
			return &b.Seqs
		}
	}
	return nil
}

// TestMutatedPlansRejectedLikeReconstructAndCompare mutates real plans one
// element at a time and holds the in-place verification to the
// reconstruct-and-compare oracle on every mutant. The content has period 64,
// so a mutation may well leave a plan that still reproduces it (an offset
// moved by a whole period); the verdicts must agree either way.
func TestMutatedPlansRejectedLikeReconstructAndCompare(t *testing.T) {
	unit := corpus.Generate(corpus.Text, 64, 3)
	periodic := bytes.Repeat(unit, 40<<10/64)
	mixed := append(corpus.Generate(corpus.Log, 150<<10, 5), corpus.Generate(corpus.JSON, 150<<10, 6)...)
	mutations := []struct {
		name string
		edit func(seqs []lz77.Seq, i int) []lz77.Seq
	}{
		{"offset+1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].Offset++; return s }},
		{"offset-1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].Offset--; return s }},
		{"offset+period", func(s []lz77.Seq, i int) []lz77.Seq { s[i].Offset += 64; return s }},
		{"offset+17periods", func(s []lz77.Seq, i int) []lz77.Seq { s[i].Offset += 64 * 17; return s }},
		{"offset-zero", func(s []lz77.Seq, i int) []lz77.Seq { s[i].Offset = 0; return s }},
		{"match+1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].MatchLen++; return s }},
		{"match-1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].MatchLen--; return s }},
		{"literal+1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].LitLen++; return s }},
		{"literal-1", func(s []lz77.Seq, i int) []lz77.Seq { s[i].LitLen--; return s }},
		{"dropped", func(s []lz77.Seq, i int) []lz77.Seq { return slices.Delete(s, i, i+1) }},
		{"duplicated", func(s []lz77.Seq, i int) []lz77.Seq { return slices.Insert(s, i, s[i]) }},
		{"reordered", func(s []lz77.Seq, i int) []lz77.Seq {
			if i+1 < len(s) {
				s[i], s[i+1] = s[i+1], s[i]
			}
			return s
		}},
	}
	coder := comp.NewCoder()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		d, err := NewDecompressor(Config{Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		for cname, content := range map[string][]byte{"periodic": periodic, "mixed": mixed} {
			_, plan, err := coder.AppendCompressSizeOnly(nil, algo, 0, 10, content)
			if err != nil {
				t.Fatal(err)
			}
			base := snapshotPlan(plan)
			if !checkPlanVerdict(t, fmt.Sprintf("%v/%s/unmutated", algo, cname), d, base, content) {
				t.Fatalf("%v/%s: the encoder's own plan is rejected", algo, cname)
			}
			n := len(*planElements(base))
			mutants, rejected := 0, 0
			for _, i := range []int{0, 1, n / 2, n - 2, n - 1} {
				for _, m := range mutations {
					if i < 0 || i >= n {
						continue
					}
					mut := snapshotPlan(base)
					els := planElements(mut)
					if (strings.HasPrefix(m.name, "literal") && (*els)[i].LitLen == 0) ||
						((strings.HasPrefix(m.name, "match") || strings.HasPrefix(m.name, "offset")) && (*els)[i].MatchLen == 0) {
						continue // the field is not part of this element
					}
					*els = m.edit(*els, i)
					name := fmt.Sprintf("%v/%s/%s@%d", algo, cname, m.name, i)
					accepted := checkPlanVerdict(t, name, d, mut, content)
					mutants++
					if !accepted {
						rejected++
					}
				}
			}
			t.Logf("%v/%s: %d of %d mutants rejected", algo, cname, rejected, mutants)
			if rejected == 0 || (cname == "periodic" && rejected == mutants) {
				t.Errorf("%v/%s: %d of %d mutants rejected; the table should see both verdicts", algo, cname, rejected, mutants)
			}
		}
		// Plans of the wrong shape for the device.
		empty := comp.Plan{}
		other := comp.Plan{Snappy: &snappy.Plan{}}
		if algo == comp.Snappy {
			other = comp.Plan{ZStd: &zstdlite.Plan{}}
		}
		for name, p := range map[string]comp.Plan{"no-plan": empty, "other-algorithm": other} {
			if _, err := d.DecompressPlanned(nil, p, nil); err == nil {
				t.Errorf("%v/%s: accepted", algo, name)
			}
		}
	}
}

// TestPlannedOffsetPastWindow: a copy whose offset is in range and whose
// source matches, so that only the frame's window is left to reject it. ZStd
// must, as its decoder would; Snappy's decoder has no such bound.
func TestPlannedOffsetPastWindow(t *testing.T) {
	content := bytes.Repeat(corpus.Generate(corpus.Text, 64, 3), 64)
	seqs := []lz77.Seq{{LitLen: 64, Offset: 64, MatchLen: 2048 - 64}, {Offset: 64 * 17, MatchLen: 2048}}
	snap, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	if !checkPlanVerdict(t, "snappy", snap, comp.Plan{Snappy: &snappy.Plan{Seqs: seqs}}, content) {
		t.Error("snappy: an in-range matching offset of 1088 rejected")
	}
	zstd, err := NewDecompressor(Config{Algo: comp.ZStd})
	if err != nil {
		t.Fatal(err)
	}
	for windowLog, want := range map[int]bool{10: false, 11: true} {
		plan := comp.Plan{ZStd: &zstdlite.Plan{WindowLog: windowLog, Blocks: []zstdlite.BlockInfo{compressedBlock(t, len(content), seqs)}}}
		if got := checkPlanVerdict(t, fmt.Sprintf("zstd/window=%d", windowLog), zstd, plan, content); got != want {
			t.Errorf("zstd: offset 1088 under a %d-byte window accepted=%v, want %v", 1<<windowLog, got, want)
		}
	}
}

// compressedBlock is a hand-made compressed block of a ZStd plan. zstdlite
// does not export the block types, so the Type comes from a real plan.
func compressedBlock(t testing.TB, rawSize int, seqs []lz77.Seq) zstdlite.BlockInfo {
	t.Helper()
	_, real, err := comp.NewCoder().AppendCompressSizeOnly(nil, comp.ZStd, 0, 0, bytes.Repeat([]byte("compressible "), 100))
	if err != nil || !real.ZStd.Blocks[0].IsCompressed() {
		t.Fatalf("no compressed block to copy (%v)", err)
	}
	return zstdlite.BlockInfo{Type: real.ZStd.Blocks[0].Type, RawSize: rawSize, NumSeqs: len(seqs), Seqs: seqs}
}

// snapshotPlan deep-copies a plan out of the encoder scratch it aliases.
func snapshotPlan(p comp.Plan) comp.Plan {
	if p.ZStd != nil {
		z := *p.ZStd
		z.Blocks = slices.Clone(z.Blocks)
		for i := range z.Blocks {
			z.Blocks[i].Seqs = slices.Clone(z.Blocks[i].Seqs)
		}
		p.ZStd = &z
	}
	if p.Snappy != nil {
		sn := *p.Snappy
		sn.Seqs = slices.Clone(sn.Seqs)
		p.Snappy = &sn
	}
	return p
}

// FuzzVerifySeqs holds the in-place plan verification to the
// reconstruct-and-compare oracle on arbitrary content and command streams:
// the fuzzer's bytes are read as (literal length, offset, match length)
// triples and offered as a Snappy plan and as a one-block ZStd plan under a
// 256-byte window.
func FuzzVerifySeqs(f *testing.F) {
	f.Add([]byte("abcabcabcabc"), []byte{3, 3, 0, 9})
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte{1, 1, 0, 15})
	f.Add([]byte("abcdabcd"), []byte{4, 4, 0, 3, 1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), []byte{16, 16, 0, 200, 0, 16, 1, 124, 100, 0, 0, 0})
	f.Add([]byte{}, []byte{})
	snap, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		f.Fatal(err)
	}
	zstd, err := NewDecompressor(Config{Algo: comp.ZStd})
	if err != nil {
		f.Fatal(err)
	}
	block := compressedBlock(f, 0, nil)
	f.Fuzz(func(t *testing.T, content, stream []byte) {
		var seqs []lz77.Seq
		for ; len(stream) >= 4; stream = stream[4:] {
			seqs = append(seqs, lz77.Seq{LitLen: int(stream[0]), Offset: int(stream[1]) | int(stream[2])<<8, MatchLen: int(stream[3])})
		}
		checkPlanVerdict(t, "snappy", snap, comp.Plan{Snappy: &snappy.Plan{Seqs: seqs}}, content)
		block.RawSize, block.NumSeqs, block.Seqs = len(content), len(seqs), seqs
		checkPlanVerdict(t, "zstd", zstd, comp.Plan{ZStd: &zstdlite.Plan{WindowLog: 8, Blocks: []zstdlite.BlockInfo{block}}}, content)
	})
}
