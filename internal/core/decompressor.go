package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"cdpu/internal/area"
	"cdpu/internal/comp"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// Per-block throughput constants (units: bytes or items per cycle at the
// CDPU clock). These model the datapath widths of the generated RTL blocks.
const (
	// literalBytesPerCycle is the LZ77 writer's literal move width.
	literalBytesPerCycle = 16
	// historyBytesPerCycle is the history SRAM read/copy width.
	historyBytesPerCycle = 16
	// fallbackChunkBytes is the burst size of one off-chip history lookup.
	fallbackChunkBytes = 32
	// fallbackOverlap is the number of outstanding off-chip history lookups
	// the Off-Chip History Lookup block keeps in flight (Figure 9): copy
	// commands with far offsets are independent of each other most of the
	// time, so their fetches pipeline up to this depth.
	fallbackOverlap = 8
	// rawMoveBytesPerCycle is the passthrough width for raw/RLE blocks.
	rawMoveBytesPerCycle = 32
	// huffTableFillPerCycle is decode-table cells written per cycle.
	huffTableFillPerCycle = 8
	// blockHeaderCycles covers per-block frame/section parsing.
	blockHeaderCycles = 30
	// elementParseCycles is the Snappy element decoder's rate (1/cycle).
	elementParseCycles = 1
)

// Decompressor is a generated decompression pipeline (Figure 9).
type Decompressor struct {
	unit

	// far backs the far-copy list of a planned call's fold, reused across
	// calls: a planned trace never outlives DecompressPlanned.
	far []farCopy
}

// NewDecompressor generates a decompressor instance from cfg (Op is forced
// to Decompress).
func NewDecompressor(cfg Config) (*Decompressor, error) {
	cfg.Op = comp.Decompress
	u, err := newUnit(cfg)
	if err != nil {
		return nil, err
	}
	return &Decompressor{unit: u}, nil
}

// Area returns the instance's silicon area breakdown.
func (d *Decompressor) Area() *area.Breakdown {
	b := area.NewBreakdown()
	b.Add("system-interface", area.SystemInterface)
	b.Add("lz77-decoder", area.LZ77DecoderLogic)
	b.Add("history-sram", area.SRAM(d.cfg.HistorySRAM))
	if d.cfg.Algo == comp.ZStd {
		b.Add("huff-expander", area.HuffExpander(d.cfg.Speculation))
		b.Add("fse-expander", area.FSEExpanderLogic)
		b.Add("fse-tables", area.FSETables(3, d.cfg.FSETableLog, 4))
		b.Add("zstd-control", area.ZstdDecodeControl)
	}
	return b
}

// Decompress runs one accelerator call over a compressed payload, returning
// the decompressed bytes and the modeled call latency: the functional decode
// (trace) followed by the timing replay (Time) over instance-owned scratch.
// Corrupt input aborts with a DeviceError whose Cycles is the modeled
// detection latency (the device has invoked, streamed the input, and parsed
// before it can reject); injected memory faults and watchdog expiry abort
// likewise.
func (d *Decompressor) Decompress(src []byte) (*Result, error) {
	if err := d.traceFrame(&d.scratch, src, d.outBuf()); err != nil {
		return nil, err
	}
	return d.Time(&d.scratch)
}

// Trace decodes src once and returns the call's functional trace, with the
// decoded payload in Output: what any Decompressor of the same algorithm
// needs to Time the call. Corrupt input fails as in Decompress.
func (d *Decompressor) Trace(src []byte) (*Trace, error) {
	tr := new(Trace)
	if err := d.traceFrame(tr, src, nil); err != nil {
		return nil, err
	}
	tr.lits = nil
	for i := range tr.blocks {
		tr.blocks[i].Literals = nil
	}
	tr.fold = tr.foldCommands()
	return tr, nil
}

// Time charges a traced call under this instance's configuration and returns
// the modeled Result, exactly as Decompress over the traced payload would:
// it is the one charge path of the decompressor. The trace is only read.
//
// A trace that carries a fold is charged from it, in time proportional to its
// far copies, not its commands. A traced call walks the commands regardless:
// span layout is per charge.
func (d *Decompressor) Time(tr *Trace) (*Result, error) {
	res, err := d.begin(tr)
	if err != nil {
		return nil, err
	}
	var fold *seqFold
	if tr.fold.folded && !d.tracing {
		fold = &tr.fold
	}
	switch {
	case d.cfg.Algo == comp.ZStd:
		d.zstdCycles(tr.blocks, fold, res)
	case fold != nil:
		d.execFold(fold, res)
	default:
		d.execSeqs(tr.seqs, res)
	}
	return d.end(res)
}

// corruptInput is the abort a decode error surfaces as. Like a timed call it
// starts from reset fault state: the detection latency consults the injector
// for the doorbell.
func (d *Decompressor) corruptInput(src []byte, err error) error {
	d.sys.ResetFaults()
	metricCorruptInputs.Inc()
	return &DeviceError{
		Reason: "corrupt-input", Unit: d.cfg.Name(),
		Cycles: d.detectionCycles(len(src)), Err: err,
	}
}

// detectionCycles models how long software waits before a corrupt stream is
// rejected: the device invokes, pays the first-access latency, and streams
// the input across the link before the parse error surfaces. This is the
// per-placement decode-error detection latency the fault-sweep tables.
func (d *Decompressor) detectionCycles(inBytes int) float64 {
	inv := d.iface.InvocationCycles(d.cfg.Placement)
	first := d.sys.RTT(d.cfg.Placement, memsys.ClassRaw)
	return inv + first + float64(inBytes)/d.sys.StreamBandwidth(d.cfg.Placement, memsys.ClassRaw)
}

// copyCycles models the LZ77 decoder executing one copy command: history
// SRAM hits stream at the history port width; more distant offsets fall back
// to serial off-chip lookups (§5.2, §3.6).
func (d *Decompressor) copyCycles(offset, length int, res *Result) {
	if offset <= d.cfg.HistorySRAM {
		res.chargeBytes(idLZ77, float64(length)/historyBytesPerCycle, length)
		return
	}
	res.chargeBytes(idHistFall, d.fallbackCycles(offset, length), length)
}

// fallbackCycles is one copy's off-chip history lookup: a burst per chunk,
// fallbackOverlap of them in flight. It consults the fault injector once.
func (d *Decompressor) fallbackCycles(offset, length int) float64 {
	chunks := math.Ceil(float64(length) / fallbackChunkBytes)
	return chunks * d.sys.AccessCyclesAt(d.cfg.Placement, memsys.ClassIntermediate, offset) / fallbackOverlap
}

// execSeqs charges the LZ77 decoder for a command stream: element parsing up
// front, then each command's literal move and history copy.
func (d *Decompressor) execSeqs(seqs []lz77.Seq, res *Result) {
	res.charge(idLZ77, float64(len(seqs))*elementParseCycles)
	for _, s := range seqs {
		if s.LitLen > 0 {
			res.chargeBytes(idLZ77, float64(s.LitLen)/literalBytesPerCycle, s.LitLen)
		}
		if s.MatchLen > 0 {
			d.copyCycles(s.Offset, s.MatchLen, res)
		}
	}
}

// execFold is execSeqs over a folded command stream. Every idLZ77 charge of
// the walk is a multiple of 1/32 cycle, so their sum is exact in any order and
// one charge carries it; fallback charges are not (link latency, injected
// cycles), so they stay one charge per copy, in stream order — which is also
// the order the fault injector sees them in.
func (d *Decompressor) execFold(f *seqFold, res *Result) {
	near := f.nearBytes
	for _, c := range f.far {
		if int(c.offset) <= d.cfg.HistorySRAM {
			near += int(c.length)
			continue
		}
		res.charge(idHistFall, d.fallbackCycles(int(c.offset), int(c.length)))
	}
	res.charge(idLZ77, float64(f.commands)*elementParseCycles+
		float64(f.litBytes)/literalBytesPerCycle+float64(near)/historyBytesPerCycle)
}

// commandStreams calls visit with each command stream Time executes, in
// order. A trace holds one kind: the Snappy element stream, or the Seqs of
// every ZStd block that has sequences (zstdCycles).
func (tr *Trace) commandStreams(visit func([]lz77.Seq)) {
	visit(tr.seqs)
	for i := range tr.blocks {
		if b := &tr.blocks[i]; b.IsCompressed() && b.NumSeqs > 0 {
			visit(b.Seqs)
		}
	}
}

// foldCommands folds the trace's command streams, visiting them twice: to
// count the far copies, then to fill a list of exactly that size.
func (tr *Trace) foldCommands() seqFold {
	f := seqFold{folded: true}
	far := 0
	tr.commandStreams(func(seqs []lz77.Seq) {
		f.commands += len(seqs)
		for _, s := range seqs {
			f.litBytes += s.LitLen
			if s.MatchLen == 0 {
				continue
			}
			if s.Offset <= MinHistorySRAM {
				f.nearBytes += s.MatchLen
			} else {
				far++
			}
		}
	})
	if far == 0 {
		return f
	}
	f.far = make([]farCopy, 0, far)
	tr.commandStreams(func(seqs []lz77.Seq) {
		for _, s := range seqs {
			if s.MatchLen > 0 && s.Offset > MinHistorySRAM {
				f.far = append(f.far, farCopy{uint32(s.Offset), uint32(s.MatchLen)})
			}
		}
	})
	return f
}

// traceFrame runs the functional decode of a compressed payload into tr,
// appending the decoded bytes to out.
func (d *Decompressor) traceFrame(tr *Trace, src, out []byte) error {
	var err error
	if d.cfg.Algo == comp.Snappy {
		out, err = tr.decodeSnappy(src, out)
	} else {
		out, err = tr.decodeZStd(src)
	}
	if err != nil {
		return d.corruptInput(src, err)
	}
	tr.seal(d.fkey, len(src), out)
	return nil
}

func (tr *Trace) decodeSnappy(src, out []byte) ([]byte, error) {
	seqs, lits, n, err := snappy.AppendDecodeSeqs(tr.seqs[:0], tr.lits[:0], src)
	if err != nil {
		return nil, err
	}
	tr.seqs, tr.lits = seqs, lits
	out = slices.Grow(out[:0], n+lz77.Slack)[:n+lz77.Slack]
	if _, err := lz77.Replay(out, 0, n, seqs, lits, 0); err != nil {
		return nil, err
	}
	return out[:n], nil
}

func (tr *Trace) decodeZStd(src []byte) ([]byte, error) {
	info, err := zstdlite.Inspect(src)
	if err != nil {
		return nil, err
	}
	tr.blocks = info.Blocks
	return zstdlite.Materialize(info)
}

// zstdCycles charges a ZStd frame's blocks: the one charge loop behind both
// Decompress (blocks parsed out of the frame) and DecompressPlanned (blocks
// the frame's producer recorded). With a fold, the blocks' commands are charged
// from it after the loop and not block by block.
func (d *Decompressor) zstdCycles(blocks []zstdlite.BlockInfo, fold *seqFold, res *Result) {
	executed := false // a block executed commands: the walk charged lz77 for them
	for i := range blocks {
		b := &blocks[i]
		res.charge(idHeader, blockHeaderCycles)
		if !b.IsCompressed() {
			res.chargeBytes(idLZ77, float64(b.RawSize)/rawMoveBytesPerCycle, b.RawSize)
			continue
		}
		// Literals section: build the decode table, then expand. The
		// speculative expander advances Speculation bit positions per cycle,
		// so its symbol rate is speculation / mean code length (§5.3).
		if b.LitCount > 0 {
			if b.HuffMaxBits > 0 {
				build := float64(b.HuffLensN) + float64(int(1)<<b.HuffMaxBits)/huffTableFillPerCycle
				res.charge(idHuffBuild, build)
				avgBits := float64(b.LitPayload*8) / float64(b.LitCount)
				if avgBits < 1 {
					avgBits = 1
				}
				symsPerCycle := float64(d.cfg.Speculation) / avgBits
				res.chargeBytes(idHuff, float64(b.LitCount)/symsPerCycle, b.LitCount)
			} else {
				res.chargeBytes(idLZ77, float64(b.LitCount)/literalBytesPerCycle, b.LitCount)
			}
		}
		// Sequence streams: FSE table builds are serial walks of the state
		// table; the three decode lanes then run in parallel at one
		// sequence per cycle (§5.4).
		if b.NumSeqs > 0 {
			for s := 0; s < 3; s++ {
				if b.FSETableLogs[s] > 0 {
					res.charge(idFSEBuild, float64(int(1)<<b.FSETableLogs[s]))
				}
			}
			res.charge(idFSE, float64(b.NumSeqs))
			if fold == nil {
				d.execSeqs(b.Seqs, res)
			}
			executed = true
		}
	}
	if fold != nil && executed {
		d.execFold(fold, res)
	}
}

// DecompressPlanned runs one accelerator call over a compressed payload
// whose structure is already known: plan is the Plan the frame's producer
// recorded (comp.Coder.AppendCompressSizeOnly) and
// content is the original plaintext the frame was encoded from. The charges
// are bit-identical to Decompress on the same frame — a ZStd plan is the
// description Inspect would parse back out, a Snappy plan the element stream
// AppendDecodeSeqs would, and both go through Time — but the frame parse,
// entropy decoding, table-cache lookups and the reconstruction of bytes the
// caller already holds are all skipped. The plan is instead proved against
// content where it lies (tracePlan), so a plan that does not match src's
// frame cannot silently misreport: it aborts as corrupt input.
//
// The Result's Output aliases content, in either result mode: it is valid for
// as long as the caller leaves content alone. src is used for size accounting
// and error paths only, so a size-only frame serves.
func (d *Decompressor) DecompressPlanned(src []byte, plan comp.Plan, content []byte) (*Result, error) {
	var tr Trace
	err := d.tracePlan(&tr, src, plan, content)
	d.far = tr.fold.far[:0]
	if err != nil {
		return nil, d.corruptInput(src, err)
	}
	return d.Time(&tr)
}

// tracePlan is traceFrame driven by a recorded Plan instead of a frame parse,
// and the one place a plan is verified. The trace takes the plan's command
// stream as it is, and its output is content itself once verifyFold has shown
// that executing the stream reproduces it — the same predicate as
// reconstructing into a buffer and comparing, without the buffer. On top of
// that each ZStd block's commands must cover exactly its RawSize, and the
// whole plan exactly content, as a frame's header would have it. The same walk
// folds the commands Time executes under this instance's HistorySRAM, so an
// untraced Time charges them from the fold.
func (d *Decompressor) tracePlan(tr *Trace, src []byte, plan comp.Plan, content []byte) error {
	end := 0
	tr.fold = seqFold{folded: true, far: d.far[:0]}
	switch {
	case d.cfg.Algo == comp.Snappy && plan.Snappy != nil:
		tr.seqs = plan.Snappy.Seqs
		var err error
		if end, err = d.verifyFold(content, 0, tr.seqs, 0, &tr.fold); err != nil {
			return err
		}
	case d.cfg.Algo == comp.ZStd && plan.ZStd != nil:
		tr.blocks = plan.ZStd.Blocks
		window := 1 << plan.ZStd.WindowLog
		for i := range tr.blocks {
			b := &tr.blocks[i]
			start := end
			if end += b.RawSize; end > len(content) {
				return fmt.Errorf("core: plan block %d overruns content (%d > %d)", i, end, len(content))
			}
			if !b.IsCompressed() {
				continue
			}
			f := &tr.fold
			if b.NumSeqs == 0 {
				f = new(seqFold) // verified, but Time executes no commands of this block
			}
			got, err := d.verifyFold(content, start, b.Seqs, window, f)
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
	tr.seal(d.fkey, len(src), content)
	return nil
}

// verifyFold proves, without producing a byte, that replaying seqs from
// position start rebuilds content[start:end] and returns end, folding the
// commands into f as it goes: a copy with offset ≤ this instance's
// HistorySRAM adds to the near bytes, any other is appended to the far list.
// The proof is the decoder's checks on each copy (0 < offset ≤ position,
// offset ≤ window unless window is 0) plus content[pos:pos+n] ==
// content[pos-offset:pos-offset+n], the two ranges compared as they lie even
// where they overlap, which holds exactly when reconstructing the stream into
// a buffer and comparing the buffer with content would (docs/MODEL.md,
// "Planned decompression", has the induction).
func (d *Decompressor) verifyFold(content []byte, start int, seqs []lz77.Seq, window int, f *seqFold) (end int, err error) {
	if start < 0 || start > len(content) {
		return 0, lz77.ErrBadLiterals
	}
	pos, near, lits := start, 0, 0
	for _, s := range seqs {
		// pos ≤ len(content) throughout, so one unsigned comparison also
		// rejects a negative length.
		if uint(s.LitLen) > uint(len(content)-pos) {
			return 0, lz77.ErrBadLiterals
		}
		pos += s.LitLen
		lits += s.LitLen
		n := s.MatchLen
		if n == 0 {
			continue
		}
		if s.Offset <= 0 || s.Offset > pos || (window > 0 && s.Offset > window) {
			return 0, fmt.Errorf("%w: offset %d, produced %d, window %d", lz77.ErrBadOffset, s.Offset, pos, window)
		}
		same := uint(n) <= uint(len(content)-pos)
		if same && n <= 8 && len(content)-pos >= 8 {
			// One word each side; the shift keeps the copy's n bytes.
			x := binary.LittleEndian.Uint64(content[pos:]) ^ binary.LittleEndian.Uint64(content[pos-s.Offset:])
			same = x<<(64-8*uint(n)) == 0
		} else if same {
			same = bytes.Equal(content[pos:pos+n], content[pos-s.Offset:pos-s.Offset+n])
		}
		if !same {
			return 0, fmt.Errorf("%w: %d bytes at %d from offset %d", lz77.ErrMismatch, n, pos, s.Offset)
		}
		if s.Offset <= d.cfg.HistorySRAM {
			near += n
		} else {
			f.far = append(f.far, farCopy{uint32(s.Offset), uint32(n)})
		}
		pos += n
	}
	f.commands += len(seqs)
	f.litBytes += lits
	f.nearBytes += near
	return pos, nil
}
