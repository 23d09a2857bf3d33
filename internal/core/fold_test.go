package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fault"
	"cdpu/internal/fleet"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/zstdlite"
)

// TestLZ77ChargesAreDyadic guards the premise of the fold (execFold): every
// charge the decompressor's command walk adds to idLZ77 is an integer number
// of cycles or a byte count over a power of two no larger than 32, so the
// partial sums are multiples of 1/32 that float64 holds exactly and adds in
// any order. A datapath width of, say, 12 bytes/cycle would make the folded
// total differ from the walked one in the last bit: it must turn red here, not
// as a drift in a golden table.
func TestLZ77ChargesAreDyadic(t *testing.T) {
	for name, width := range map[string]float64{
		"literalBytesPerCycle": literalBytesPerCycle,
		"historyBytesPerCycle": historyBytesPerCycle,
		"rawMoveBytesPerCycle": rawMoveBytesPerCycle,
	} {
		if w := uint64(width); float64(w) != width || bits.OnesCount64(w) != 1 || w > 32 {
			t.Errorf("%s = %v: the fold needs a power of two of at most 32; walk every command in Time or rework execFold", name, width)
		}
	}
	if c := float64(elementParseCycles); c != math.Trunc(c) {
		t.Errorf("elementParseCycles = %v: the fold needs a whole number of cycles per command", c)
	}
}

// walkTime charges tr on d by the per-command walk, whatever the trace's fold
// holds: Time's begin and end around execSeqs or zstdCycles without a fold, the
// oracle the fold is held to. On a traced unit it is what Time does.
func walkTime(d *Decompressor, tr *Trace) (*Result, error) {
	res, err := d.begin(tr)
	if err != nil {
		return nil, err
	}
	if d.cfg.Algo == comp.ZStd {
		d.zstdCycles(tr.blocks, nil, res)
	} else {
		d.execSeqs(tr.seqs, res)
	}
	return d.end(res)
}

// traceCommands is every command Time executes for tr, in order: the Snappy
// element stream, or the Seqs of every ZStd block that has sequences.
func traceCommands(tr *Trace) []lz77.Seq {
	seqs := slices.Clone(tr.seqs)
	for i := range tr.blocks {
		if b := &tr.blocks[i]; b.IsCompressed() && b.NumSeqs > 0 {
			seqs = append(seqs, b.Seqs...)
		}
	}
	return seqs
}

// outcome renders everything a caller can read of a timed call, bit for bit.
func outcome(res *Result, err error) string {
	var sb strings.Builder
	renderOutcome(&sb, res, err, false)
	return sb.String()
}

// foldTimers is the timing matrix the fold is checked under: every power of
// two of HistorySRAM from the bound the fold's near total assumes to the
// largest legal one, every placement, with and without a deterministic fault
// injector, three speculation widths. The healthy default-speculation units
// each have a traced twin.
type foldTimers struct {
	plain, traced []*Decompressor
}

func newFoldTimers(t testing.TB, algo comp.Algorithm) foldTimers {
	var timers foldTimers
	unit := func(cfg Config, fi memsys.FaultInjector, tracing bool) *Decompressor {
		d, err := NewDecompressor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.SetFaultInjector(fi)
		d.SetTracing(tracing)
		d.SetResultReuse(true) // every Result is rendered before the unit's next call
		return d
	}
	srams := []int{MaxHistorySRAM}
	for s := MinHistorySRAM; s <= 64<<10; s <<= 1 {
		srams = append(srams, s)
	}
	for _, sram := range srams {
		for _, p := range memsys.Placements {
			for _, spec := range []int{4, 16, 32} {
				cfg := Config{Algo: algo, Placement: p, HistorySRAM: sram, Speculation: spec}
				timers.plain = append(timers.plain, unit(cfg, nil, false), unit(cfg, foldFaults(4000), false))
				if spec == DefaultSpeculation {
					timers.traced = append(timers.traced, unit(cfg, nil, true))
				}
			}
		}
	}
	return timers
}

// check times tr, folded at MinHistorySRAM as Decompressor.Trace folds, against
// the per-command walk: an untraced Result must be the walk's to the last bit,
// and a traced call must return the walk's spans. Each untraced unit also times
// tr folded again at its own HistorySRAM, as Decompress and DecompressPlanned
// fold.
func (timers foldTimers) check(t *testing.T, name string, tr *Trace) {
	t.Helper()
	own := map[int]*Trace{} // tr folded at each HistorySRAM
	for _, d := range timers.plain {
		want := outcome(walkTime(d, tr))
		if got := outcome(d.Time(tr)); got != want {
			t.Fatalf("%s on %s: the fold differs from the walk:\n fold %s walk %s", name, d.cfg.Name(), got, want)
		}
		sram := d.cfg.HistorySRAM
		if own[sram] == nil {
			re := *tr
			if err := d.fold(&re, tr.Output, 0, sram); err != nil {
				t.Fatalf("%s on %s: %v", name, d.cfg.Name(), err)
			}
			re.fold.far = slices.Clone(re.fold.far) // d reuses its backing
			own[sram] = &re
		}
		if got := outcome(d.Time(own[sram])); got != want {
			t.Fatalf("%s on %s: the fold at the unit's own HistorySRAM differs from the walk:\n fold %s walk %s", name, d.cfg.Name(), got, want)
		}
	}
	for _, d := range timers.traced {
		res, err := d.Time(tr)
		if err == nil && len(res.Spans) == 0 {
			t.Fatalf("%s on %s: a traced call returned no spans", name, d.cfg.Name())
		}
		got := outcome(res, err)
		if want := outcome(walkTime(d, tr)); got != want {
			t.Fatalf("%s on %s: traced call:\n got  %s want %s", name, d.cfg.Name(), got, want)
		}
	}
}

// TestFoldMatchesWalk holds Time over a folded trace to the per-command walk
// on real frames: the small suite, plus one file long enough to carry offsets
// past 64 KiB and a second ZStd block, software-compressed by Snappy and by
// ZStd at every window log the fleet's decompression calls use.
func TestFoldMatchesWalk(t *testing.T) {
	files := append(corpus.SmallSuite(), corpus.File{Name: "long-log", Data: corpus.Generate(corpus.Log, 160<<10, 106)})
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		timers := newFoldTimers(t, algo)
		windowLogs := []int{0}
		if algo == comp.ZStd {
			windowLogs = nil
			for _, p := range fleet.ZStdWindows(comp.Decompress).CDF() {
				windowLogs = append(windowLogs, p.Bin)
			}
		}
		far, copies := 0, 0
		for _, f := range files {
			for _, wlog := range windowLogs {
				if wlog > 10 && 1<<(wlog-1) >= len(f.Data) {
					continue // the window below already held the whole file: the same parse again
				}
				frame, err := comp.CompressCall(algo, 0, wlog, f.Data)
				if err != nil {
					t.Fatal(err)
				}
				tr, err := timers.plain[0].Trace(frame)
				if err != nil {
					t.Fatal(err)
				}
				timers.check(t, fmt.Sprintf("%v/%s/wlog%d", algo, f.Name, wlog), tr)
				far += len(tr.fold.far)
				for _, s := range traceCommands(tr) {
					if s.MatchLen > 0 {
						copies++
					}
				}
			}
		}
		if far == 0 || far == copies {
			t.Errorf("%v: %d of %d copies are far: the matrix exercises one side of the fold only", algo, far, copies)
		}
	}
}

// foldCase is a hand-built command stream: the edges of the fold's two
// comparisons, and the streams that leave one of its parts empty. Every copy
// reaches back into bytes already produced, so each stream replays into the
// content its fold is verified against. They are FuzzFoldMatchesWalk's seeds
// as well.
type foldCase struct {
	name string
	seqs []lz77.Seq
}

// history is n bytes of literal runs, each short enough for encodeCommands:
// the bytes a later copy reaches back into.
func history(n int) []lz77.Seq {
	var seqs []lz77.Seq
	for ; n > 0; n -= 1<<16 - 1 {
		seqs = append(seqs, lz77.Seq{LitLen: min(n, 1<<16-1)})
	}
	return seqs
}

var foldCases = []foldCase{
	{"no-commands", nil},
	{"one-literal-run", []lz77.Seq{{LitLen: 100}}},
	{"terminal-literal-run", []lz77.Seq{{LitLen: 5003, Offset: 5000, MatchLen: 40}, {LitLen: 17}}},
	{"offset-at-min-sram", []lz77.Seq{{LitLen: MinHistorySRAM, Offset: MinHistorySRAM, MatchLen: 33}, {Offset: MinHistorySRAM + 1, MatchLen: 33}}},
	{"offset-at-sram", append(history(MaxHistorySRAM+1), []lz77.Seq{
		{LitLen: 9, Offset: 8<<10 - 1, MatchLen: 64}, {Offset: 8 << 10, MatchLen: 31}, {Offset: 8<<10 + 1, MatchLen: 32},
		{Offset: 64 << 10, MatchLen: 7}, {Offset: 64<<10 + 1, MatchLen: 65}, {Offset: MaxHistorySRAM, MatchLen: 4}, {Offset: MaxHistorySRAM + 1, MatchLen: 4},
	}...)},
	{"all-near", []lz77.Seq{{LitLen: 1000, Offset: 1, MatchLen: 300}, {Offset: 40, MatchLen: 5}, {LitLen: 2, Offset: 1000, MatchLen: 64}}},
	{"all-far", append(history(MaxHistorySRAM+1), []lz77.Seq{
		{Offset: MaxHistorySRAM + 1, MatchLen: 300}, {Offset: 2000, MatchLen: 5}, {Offset: 3 << 18, MatchLen: 1<<16 - 1},
	}...)},
	{"thirds-of-a-cycle", []lz77.Seq{{LitLen: 3, Offset: 3, MatchLen: 1}, {LitLen: 2001, Offset: 2000, MatchLen: 3}, {LitLen: 5, Offset: 7, MatchLen: 11}}},
}

// zstdBlockCompressed is the format's Compressed_Block type, which zstdlite
// keeps to itself; TestFoldEdgeCases checks the number against IsCompressed.
const zstdBlockCompressed = 2

// foldFaults is the deterministic injector of the fold's tests: latency spikes
// and stalls throughout, an error response on every errorEvery-th memory event.
func foldFaults(errorEvery int) fault.Plan {
	return fault.Plan{SpikeEvery: 3, SpikeCycles: 700, StallEvery: 2, StallMSHRs: 5, ErrorEvery: errorEvery}
}

// handTrace builds the decompression trace of a command stream no frame was
// parsed for. The Snappy trace is the stream itself; the ZStd trace deals it
// out over compressed blocks of perBlock commands with a raw block after each,
// so raw moves land in idLZ77 between the blocks' commands. The content is the
// stream replayed over generated literals, raw blocks filled the same way, and
// the production fold verifies the stream against it, folding at near.
func handTrace(t testing.TB, algo comp.Algorithm, seqs []lz77.Seq, perBlock, near int) *Trace {
	t.Helper()
	tr := &Trace{}
	inBytes := 7 * len(seqs)
	whole := zstdlite.BlockInfo{Type: zstdBlockCompressed, NumSeqs: len(seqs), Seqs: seqs}
	blocks := []zstdlite.BlockInfo{whole}
	if algo == comp.Snappy {
		tr.seqs = seqs
	} else {
		for len(seqs) > 0 {
			n := min(perBlock, len(seqs))
			b := zstdlite.BlockInfo{Type: zstdBlockCompressed, NumSeqs: n, Seqs: seqs[:n], FSETableLogs: [3]int{9, 8, 9}}
			for _, s := range b.Seqs {
				b.LitCount += s.LitLen
			}
			tr.blocks = append(tr.blocks, b, zstdlite.BlockInfo{RawSize: 100 + n})
			seqs = seqs[n:]
		}
		blocks = tr.blocks
	}
	total, lits := 0, 0
	for i := range blocks {
		b := &blocks[i]
		for _, s := range b.Seqs {
			b.RawSize += s.LitLen + s.MatchLen
			lits += s.LitLen
		}
		if !b.IsCompressed() {
			lits += b.RawSize
		}
		total += b.RawSize
	}
	src := corpus.Generate(corpus.Text, lits, 17)
	content := make([]byte, total+lz77.Slack)
	pos := 0
	for _, b := range blocks {
		if !b.IsCompressed() {
			pos += copy(content[pos:pos+b.RawSize], src)
			src = src[b.RawSize:]
			continue
		}
		n := b.RawSize
		for _, s := range b.Seqs {
			n -= s.MatchLen
		}
		if _, err := lz77.Replay(content, pos, pos+b.RawSize, b.Seqs, src[:n], 0); err != nil {
			t.Fatalf("the stream does not replay: %v", err)
		}
		pos += b.RawSize
		src = src[n:]
	}
	d, err := NewDecompressor(Config{Algo: algo})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.fold(tr, content[:total], 0, near); err != nil {
		t.Fatal(err)
	}
	tr.seal(d.fkey, inBytes, content[:total])
	return tr
}

// TestFoldEdgeCases runs the hand-built streams through the whole timing
// matrix, and pins which blocks a call with nothing to execute names.
func TestFoldEdgeCases(t *testing.T) {
	if b := (zstdlite.BlockInfo{Type: zstdBlockCompressed}); !b.IsCompressed() {
		t.Fatal("zstdBlockCompressed is not zstdlite's compressed block type")
	}
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		timers := newFoldTimers(t, algo)
		for _, c := range foldCases {
			for _, perBlock := range []int{1, 3} {
				tr := handTrace(t, algo, c.seqs, perBlock, MinHistorySRAM)
				timers.check(t, fmt.Sprintf("%v/%s/%d", algo, c.name, perBlock), tr)
			}
		}
	}

	// Frames with nothing to execute. An empty Snappy frame still names lz77
	// (the element decoder ran, over nothing); a ZStd frame of raw or RLE
	// blocks gains nothing from a fold of no commands: it names lz77 for the
	// blocks' own moves, as the walk does, and no fallback or entropy block.
	for name, c := range map[string]struct {
		algo  comp.Algorithm
		plain []byte
	}{
		"snappy-empty": {comp.Snappy, nil},
		"zstd-empty":   {comp.ZStd, nil},
		"zstd-raw":     {comp.ZStd, corpus.Generate(corpus.Random, 200<<10, 3)},
		"zstd-rle":     {comp.ZStd, make([]byte, 200<<10)},
	} {
		frame, err := comp.CompressCall(c.algo, 0, 0, c.plain)
		if err != nil {
			t.Fatal(err)
		}
		d := mustDecompressor(t, Config{Algo: c.algo, HistorySRAM: 2 << 10})
		tr, err := d.Trace(frame)
		if err != nil {
			t.Fatal(err)
		}
		if tr.fold.commands != 0 || tr.fold.far != nil {
			t.Fatalf("%s: fold of %d commands, far list %v; want none", name, tr.fold.commands, tr.fold.far)
		}
		folded, err := d.Time(tr)
		if err != nil {
			t.Fatal(err)
		}
		walked, err := d.Decompress(frame)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outcome(folded, nil), outcome(walked, nil); got != want {
			t.Errorf("%s: Time over the fold %s Decompress %s", name, got, want)
		}
		for _, block := range []string{BlockHistFall, BlockFSE, BlockHuff} {
			if _, ok := folded.Blocks[block]; ok {
				t.Errorf("%s: a call with no commands names %s: %v", name, block, folded.Blocks)
			}
		}
		if _, ok := folded.Blocks[BlockLZ77]; !ok {
			t.Errorf("%s: the call does not name lz77: %v", name, folded.Blocks)
		}
	}
}

// Command streams cross the fuzzer as 7 bytes a command: literal length and
// match length as 16 bits, the offset as 24.
func encodeCommands(seqs []lz77.Seq) []byte {
	var out []byte
	for _, s := range seqs {
		out = append(out, byte(s.LitLen), byte(s.LitLen>>8), byte(s.Offset), byte(s.Offset>>8), byte(s.Offset>>16), byte(s.MatchLen), byte(s.MatchLen>>8))
	}
	return out
}

// decodeCommands clamps each offset into [1, bytes produced], so the stream
// replays; a copy with nothing before it loses its match.
func decodeCommands(data []byte) []lz77.Seq {
	seqs := make([]lz77.Seq, 0, len(data)/7)
	pos := 0
	for ; len(data) >= 7; data = data[7:] {
		s := lz77.Seq{
			LitLen:   int(data[0]) | int(data[1])<<8,
			Offset:   int(data[2]) | int(data[3])<<8 | int(data[4])<<16,
			MatchLen: int(data[5]) | int(data[6])<<8,
		}
		pos += s.LitLen
		if pos == 0 {
			s.MatchLen = 0
		}
		s.Offset = min(max(s.Offset, 1), max(pos, 1))
		pos += s.MatchLen
		seqs = append(seqs, s)
	}
	return seqs
}

// FuzzFoldMatchesWalk times arbitrary replayable command streams from their
// fold and by the per-command walk, as a Snappy stream and dealt over ZStd
// blocks, under an arbitrary HistorySRAM, placement and speculation, with and
// without a fault injector, folded at MinHistorySRAM as Trace folds or at the
// unit's HistorySRAM as Decompress does: the two Results, or the two aborts,
// must agree in every bit.
func FuzzFoldMatchesWalk(f *testing.F) {
	for i, c := range foldCases {
		f.Add(encodeCommands(c.seqs), uint8(i), uint8(i), uint8(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, sramLog, placement, flags uint8) {
		seqs := decodeCommands(data)
		total := 0
		for _, s := range seqs {
			total += s.LitLen + s.MatchLen
		}
		if total > 4<<20 {
			t.Skip("content over 4 MiB")
		}
		algo := comp.Snappy
		if flags&1 != 0 {
			algo = comp.ZStd
		}
		d, err := NewDecompressor(Config{
			Algo:        algo,
			HistorySRAM: MinHistorySRAM << (sramLog % 11),
			Placement:   memsys.Placements[int(placement)%len(memsys.Placements)],
			Speculation: 1 + int(flags>>2),
		})
		if err != nil {
			t.Fatal(err)
		}
		if flags&2 != 0 {
			d.SetFaultInjector(foldFaults(29))
		}
		near := MinHistorySRAM
		if sramLog&0x80 != 0 {
			near = d.cfg.HistorySRAM
		}
		tr := handTrace(t, algo, seqs, 1+int(placement>>2)%8, near)
		want := outcome(walkTime(d, tr))
		if got := outcome(d.Time(tr)); got != want {
			t.Fatalf("%s over %d commands: the fold differs from the walk:\n fold %s walk %s", d.cfg.Name(), len(seqs), got, want)
		}
	})
}

// BenchmarkDecompressorTime is the timing half of time(trace(x)) on its own:
// one pass over the small suite's decompression traces per iteration, under
// the configurations at the ends of the sweeps (everything near / most copies
// far, cheapest / dearest fallback), charged from the fold as every untraced
// call is and by the per-command walk that traced calls take.
func BenchmarkDecompressorTime(b *testing.B) {
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		b.Run(algo.String(), func(b *testing.B) {
			tracer, err := NewDecompressor(Config{Algo: algo})
			if err != nil {
				b.Fatal(err)
			}
			var traces []*Trace
			commands := 0
			for _, f := range corpus.SmallSuite() {
				frame, err := comp.CompressCall(algo, 0, 0, f.Data)
				if err != nil {
					b.Fatal(err)
				}
				tr, err := tracer.Trace(frame)
				if err != nil {
					b.Fatal(err)
				}
				traces = append(traces, tr)
				commands += tr.fold.commands
			}
			for _, sram := range []int{64 << 10, 2 << 10} {
				b.Run(fmt.Sprintf("%dK", sram>>10), func(b *testing.B) {
					for _, p := range []memsys.Placement{memsys.RoCC, memsys.PCIeNoCache} {
						b.Run(p.String(), func(b *testing.B) {
							for _, path := range []struct {
								name string
								time func(*Decompressor, *Trace) (*Result, error)
							}{{"fold", (*Decompressor).Time}, {"walk", walkTime}} {
								b.Run(path.name, func(b *testing.B) {
									d, err := NewDecompressor(Config{Algo: algo, HistorySRAM: sram, Placement: p})
									if err != nil {
										b.Fatal(err)
									}
									d.SetResultReuse(true)
									b.ReportAllocs()
									b.ResetTimer()
									for i := 0; i < b.N; i++ {
										for _, tr := range traces {
											if _, err := path.time(d, tr); err != nil {
												b.Fatal(err)
											}
										}
									}
									b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(commands), "ns/command")
								})
							}
						})
					}
				})
			}
		})
	}
}
