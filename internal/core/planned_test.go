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
	"cdpu/internal/fault"
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
// attribution, same output bytes, or the same abort, for both codecs on every
// placement, history SRAM size (the planned fold's near threshold), corpus
// kind and size, with and without a fault injector: a mixed one, and the three
// the replay's re-cost installs (a storm's memory fault, a storm's watchdog
// spike, a brownout's stalled MSHRs). One unit per codec is traced, so the
// spans are compared too. The parse-based side
// decodes the full frame; the planned side gets what the replay engine hands
// it, the size-only frame and its Plan. The engine depends on this
// equivalence to keep Reports byte-identical while skipping the frame parse
// and the reconstruction.
func TestDecompressPlannedMatchesDecompress(t *testing.T) {
	coder := comp.NewCoder()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		var decs []*Decompressor
		var units []string
		unit := func(cfg Config, fi memsys.FaultInjector, name string) *Decompressor {
			d, err := NewDecompressor(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.SetFaultInjector(fi)
			decs = append(decs, d)
			units = append(units, name)
			return d
		}
		for _, placement := range memsys.Placements {
			for _, sram := range []int{1 << 10, 8 << 10, 64 << 10} {
				for _, fi := range []memsys.FaultInjector{nil, foldFaults(4000)} {
					unit(Config{Algo: algo, Placement: placement, HistorySRAM: sram}, fi,
						fmt.Sprintf("%v/%dK/faults=%v", placement, sram>>10, fi != nil))
				}
			}
		}
		matrix := len(decs)
		unit(Config{Algo: algo}, fault.Plan{ErrorEvery: 1}, "storm-memory-fault")
		unit(Config{Algo: algo}, fault.Plan{SpikeEvery: 1, SpikeCycles: 1e12}, "storm-watchdog")
		unit(Config{Algo: algo}, fault.Plan{StallEvery: 1, StallMSHRs: fault.BrownoutStallMSHRs}, "brownout")
		unit(Config{Algo: algo}, nil, "traced").SetTracing(true)
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
				for i, d := range decs {
					if raceEnabled && size == 1<<20 && (i >= matrix || d.cfg.HistorySRAM != DefaultHistorySRAM || i%2 == 1) {
						continue // the ordinary pass runs these; the race pass keeps the placement axis
					}
					want, werr := d.Decompress(full)
					got, err := d.DecompressPlanned(sizeOnly, plan, content)
					name := name + "/" + units[i]
					if g, w := outcome(got, err), outcome(want, werr); g != w {
						t.Errorf("%s: planned %s parsed %s", name, g, w)
					}
					if err != nil || werr != nil {
						continue
					}
					if !bytes.Equal(got.Output, want.Output) || !bytes.Equal(got.Output, content) {
						t.Errorf("%s: planned output differs from parsed output or content", name)
					}
					if len(content) > 0 && &got.Output[0] != &content[0] {
						t.Errorf("%s: planned output is a copy, not content itself", name)
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

// TestPlanShapesMatchReference offers ZStd plans whose block layout no encoder
// writes — a negative block size that moves the next block's start before the
// content, commands on a block that declares none, a block that declares
// commands and has none — to the fused walk and its references
// (checkPlanFold), under both a near-only and a small history SRAM.
func TestPlanShapesMatchReference(t *testing.T) {
	content := bytes.Repeat(corpus.Generate(corpus.Text, 64, 3), 64)
	seqs := []lz77.Seq{{LitLen: 64, Offset: 64, MatchLen: 2048 - 64}, {Offset: 64 * 17, MatchLen: 2048}}
	whole := compressedBlock(t, len(content), seqs)
	undeclared := whole
	undeclared.NumSeqs = 0
	undeclaredHalf := compressedBlock(t, 2048, seqs[:1])
	undeclaredHalf.NumSeqs = 0
	empty := compressedBlock(t, 0, nil)
	empty.NumSeqs = 3
	shapes := []struct {
		name    string
		blocks  []zstdlite.BlockInfo
		content []byte
	}{
		{"whole", []zstdlite.BlockInfo{whole}, content},
		{"negative-raw", []zstdlite.BlockInfo{{RawSize: -5}, compressedBlock(t, len(content)+5, seqs)}, content},
		{"negative-start", []zstdlite.BlockInfo{{RawSize: -5}, {RawSize: 5}, whole}, content},
		{"undeclared-seqs", []zstdlite.BlockInfo{undeclared}, content},
		{"undeclared-first", []zstdlite.BlockInfo{undeclaredHalf, compressedBlock(t, 2048, seqs[1:])}, content},
		{"declared-no-seqs", []zstdlite.BlockInfo{empty, whole}, content},
		{"declared-no-seqs-only", []zstdlite.BlockInfo{empty}, nil},
		{"short-of-content", []zstdlite.BlockInfo{compressedBlock(t, 2048, seqs[:1])}, content},
		{"past-the-content", []zstdlite.BlockInfo{whole, {RawSize: 1}}, content},
		{"commands-too-long", []zstdlite.BlockInfo{compressedBlock(t, 64, seqs[:1]), compressedBlock(t, len(content)-64, nil)}, content},
	}
	for _, sram := range []int{1 << 10, 64 << 10} {
		d := mustDecompressor(t, Config{Algo: comp.ZStd, HistorySRAM: sram})
		for _, c := range shapes {
			t.Run(fmt.Sprintf("%s/%dK", c.name, sram>>10), func(t *testing.T) {
				checkPlanFold(t, d, comp.Plan{ZStd: &zstdlite.Plan{WindowLog: 16, Blocks: c.blocks}}, c.content)
			})
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
// 256-byte window. The same streams then go, as a Snappy plan and as a ZStd
// plan under a 64 KiB window, to decompressors with a 1 KiB and a 64 KiB
// history SRAM, with and without a fault injector: a plan the walk accepts
// must time bit-equal to the per-command walk over the same commands, and a
// plan it rejects must fail as the reference verifier does (checkPlanFold).
func FuzzVerifySeqs(f *testing.F) {
	f.Add([]byte("abcabcabcabc"), []byte{3, 3, 0, 9})
	f.Add([]byte("aaaaaaaaaaaaaaaa"), []byte{1, 1, 0, 15})
	f.Add([]byte("abcdabcd"), []byte{4, 4, 0, 3, 1, 0, 0, 0})
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), []byte{16, 16, 0, 200, 0, 16, 1, 124, 100, 0, 0, 0})
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 110), []byte{
		16, 16, 0, 255, 1, 16, 0, 255, 0, 16, 1, 255, 2, 16, 0, 255, 1, 16, 0, 255, 0, 0, 5, 255, 10, 0, 6, 200}) // copies 1280 and 1536 back
	f.Add([]byte{}, []byte{})
	snap, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		f.Fatal(err)
	}
	zstd, err := NewDecompressor(Config{Algo: comp.ZStd})
	if err != nil {
		f.Fatal(err)
	}
	var folders []*Decompressor
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, sram := range []int{1 << 10, 64 << 10} {
			for _, fi := range []memsys.FaultInjector{nil, foldFaults(29)} {
				d, err := NewDecompressor(Config{Algo: algo, HistorySRAM: sram})
				if err != nil {
					f.Fatal(err)
				}
				d.SetFaultInjector(fi)
				folders = append(folders, d)
			}
		}
	}
	block := compressedBlock(f, 0, nil)
	f.Fuzz(func(t *testing.T, content, stream []byte) {
		var seqs []lz77.Seq
		for ; len(stream) >= 4; stream = stream[4:] {
			seqs = append(seqs, lz77.Seq{LitLen: int(stream[0]), Offset: int(stream[1]) | int(stream[2])<<8, MatchLen: int(stream[3])})
		}
		snapPlan := comp.Plan{Snappy: &snappy.Plan{Seqs: seqs}}
		checkPlanVerdict(t, "snappy", snap, snapPlan, content)
		block.RawSize, block.NumSeqs, block.Seqs = len(content), len(seqs), seqs
		checkPlanVerdict(t, "zstd", zstd, comp.Plan{ZStd: &zstdlite.Plan{WindowLog: 8, Blocks: []zstdlite.BlockInfo{block}}}, content)
		for _, d := range folders {
			plan := snapPlan
			if d.cfg.Algo == comp.ZStd {
				plan = comp.Plan{ZStd: &zstdlite.Plan{WindowLog: 16, Blocks: []zstdlite.BlockInfo{block}}}
			}
			checkPlanFold(t, d, plan, content)
		}
	})
}

// checkPlanFold holds DecompressPlanned on one plan to its two references. A
// plan refPlanCheck rejects must be rejected as corrupt input with the same
// error, sentinel and text. A plan it accepts must time exactly as the
// per-command walk over the plan's trace (walkTime).
func checkPlanFold(t *testing.T, d *Decompressor, plan comp.Plan, content []byte) {
	t.Helper()
	name := fmt.Sprintf("%s/%dK", d.cfg.Name(), d.cfg.HistorySRAM>>10)
	res, err := d.DecompressPlanned(nil, plan, content)
	if want := refPlanCheck(d, plan, content); want != nil {
		var derr *DeviceError
		if !errors.As(err, &derr) || derr.Reason != "corrupt-input" {
			t.Fatalf("%s: the reference rejects (%v), the planned path returns %v", name, want, err)
		}
		for _, sentinel := range []error{lz77.ErrBadLiterals, lz77.ErrBadOffset, lz77.ErrMismatch} {
			if errors.Is(derr.Err, sentinel) != errors.Is(want, sentinel) {
				t.Fatalf("%s: rejected with %v, the reference with %v", name, derr.Err, want)
			}
		}
		if derr.Err.Error() != want.Error() {
			t.Fatalf("%s: rejected with %q, the reference with %q", name, derr.Err, want)
		}
		return
	}
	got := outcome(res, err)
	var tr Trace
	if err := d.tracePlan(&tr, nil, plan, content); err != nil {
		t.Fatalf("%s: the reference accepts, tracePlan rejects: %v", name, err)
	}
	if walk := outcome(walkTime(d, &tr)); got != walk {
		t.Fatalf("%s: planned %s per-command walk %s", name, got, walk)
	}
}

// refPlanCheck is tracePlan's verification as it stood before the fold joined
// it: refVerifySeqs over each command stream, each ZStd block's commands held
// to its RawSize and the whole plan to content. It returns the error tracePlan
// must wrap, or nil for a plan it must accept.
func refPlanCheck(d *Decompressor, plan comp.Plan, content []byte) error {
	end := 0
	switch {
	case d.cfg.Algo == comp.Snappy && plan.Snappy != nil:
		var err error
		if end, err = refVerifySeqs(content, 0, plan.Snappy.Seqs, 0); err != nil {
			return err
		}
	case d.cfg.Algo == comp.ZStd && plan.ZStd != nil:
		window := 1 << plan.ZStd.WindowLog
		for i := range plan.ZStd.Blocks {
			b := &plan.ZStd.Blocks[i]
			start := end
			if end += b.RawSize; end > len(content) {
				return fmt.Errorf("core: plan block %d overruns content (%d > %d)", i, end, len(content))
			}
			if !b.IsCompressed() {
				continue
			}
			got, err := refVerifySeqs(content, start, b.Seqs, window)
			if err != nil {
				return fmt.Errorf("core: plan block %d: %w", i, err)
			}
			if got != end {
				return fmt.Errorf("core: plan block %d commands cover %d bytes, the block %d", i, got-start, b.RawSize)
			}
		}
	default:
		return fmt.Errorf("core: planned decompress on %s without a plan of its algorithm", d.cfg.Name())
	}
	if end != len(content) {
		return fmt.Errorf("core: plan covers %d bytes, content has %d", end, len(content))
	}
	return nil
}

// refVerifySeqs is lz77's reference VerifySeqs (lz77/ref_test.go), the plan
// verifier before verifyFold, repeated here because test files do not cross
// packages: replaying seqs from start must rebuild content[start:end], every
// copy checked where it lies with bytes.Equal.
func refVerifySeqs(content []byte, start int, seqs []lz77.Seq, window int) (end int, err error) {
	if start < 0 || start > len(content) {
		return 0, lz77.ErrBadLiterals
	}
	pos := start
	for _, s := range seqs {
		if uint(s.LitLen) > uint(len(content)-pos) {
			return 0, lz77.ErrBadLiterals
		}
		pos += s.LitLen
		if s.MatchLen == 0 {
			continue
		}
		if s.Offset <= 0 || s.Offset > pos || (window > 0 && s.Offset > window) {
			return 0, fmt.Errorf("%w: offset %d, produced %d, window %d", lz77.ErrBadOffset, s.Offset, pos, window)
		}
		if uint(s.MatchLen) > uint(len(content)-pos) ||
			!bytes.Equal(content[pos:pos+s.MatchLen], content[pos-s.Offset:pos-s.Offset+s.MatchLen]) {
			return 0, fmt.Errorf("%w: %d bytes at %d from offset %d", lz77.ErrMismatch, s.MatchLen, pos, s.Offset)
		}
		pos += s.MatchLen
	}
	return pos, nil
}

// BenchmarkDecompressPlanned is the replay's decompress-op device call on its
// own: DecompressPlanned over the plans of one payload of each corpus kind, at
// a fleet-typical size and a large one, plans taken once up front.
func BenchmarkDecompressPlanned(b *testing.B) {
	coder := comp.NewCoder()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, size := range []int{8 << 10, 256 << 10} {
			b.Run(fmt.Sprintf("%v/%dK", algo, size>>10), func(b *testing.B) {
				d, err := NewDecompressor(Config{Algo: algo})
				if err != nil {
					b.Fatal(err)
				}
				d.SetResultReuse(true)
				var contents [][]byte
				var frames [][]byte
				var plans []comp.Plan
				for _, kind := range corpus.Kinds {
					content := corpus.Generate(kind, size, int64(size)+int64(kind))
					frame, plan, err := coder.AppendCompressSizeOnly(nil, algo, 0, 0, content)
					if err != nil {
						b.Fatal(err)
					}
					contents, frames, plans = append(contents, content), append(frames, frame), append(plans, snapshotPlan(plan))
				}
				b.SetBytes(int64(size * len(contents)))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for k := range contents {
						if _, err := d.DecompressPlanned(frames[k], plans[k], contents[k]); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}
