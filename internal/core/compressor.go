package core

import (
	"fmt"

	"cdpu/internal/area"
	"cdpu/internal/comp"
	"cdpu/internal/lz77"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// Encoder-side throughput constants.
const (
	// matchExtendBytesPerCycle is the match-extension compare width.
	matchExtendBytesPerCycle = 8
	// litPassBytesPerCycle is the literal passthrough width.
	litPassBytesPerCycle = 16
	// huffCodeAssignCycles covers sorting counts and assigning canonical
	// codes after statistics collection.
	huffCodeAssignCycles = 300
	// extrasPackPerCycle is sequences whose extra bits pack per cycle.
	extrasPackPerCycle = 2
)

// Compressor is a generated compression pipeline (Figure 10).
type Compressor struct {
	unit

	snap *snappy.Encoder
	zstd *zstdlite.Encoder

	// discard receives the frame of a size-only Trace: only its length is kept.
	discard []byte
}

// NewCompressor generates a compressor instance from cfg (Op is forced to
// Compress).
func NewCompressor(cfg Config) (*Compressor, error) {
	cfg.Op = comp.Compress
	u, err := newUnit(cfg)
	if err != nil {
		return nil, err
	}
	c := &Compressor{unit: u}
	cfg = u.cfg // defaults applied
	switch cfg.Algo {
	case comp.Snappy:
		c.snap, err = snappy.NewEncoder(snappy.EncoderConfig{
			TableEntries:  cfg.HashTableEntries,
			Associativity: cfg.HashAssociativity,
			WindowSize:    min(cfg.HistorySRAM, snappy.MaxBlockWindow),
			Hash:          cfg.HashFunc,
			// Hardware probes every position: skipping saves nothing at one
			// position per cycle, which is why the 64K instance slightly
			// beats software's compression ratio (§6.3).
			SkipIncompressible: false,
		})
	case comp.ZStd:
		// The ZStd compressor re-uses the LZ77 encoder block exactly as
		// configured for Snappy (min-match 4, greedy), which is why it
		// reaches only ~84% of software ZStd's compression ratio (§6.5).
		lzCfg := lz77.Config{
			WindowSize:    cfg.HistorySRAM,
			TableEntries:  cfg.HashTableEntries,
			Associativity: cfg.HashAssociativity,
			MinMatch:      4,
			Hash:          cfg.HashFunc,
		}
		c.zstd, err = zstdlite.NewEncoder(zstdlite.Params{
			WindowLog:   log2(cfg.HistorySRAM),
			TableLog:    cfg.FSETableLog,
			HuffMaxBits: DefaultHuffTableBits,
			LZ:          &lzCfg,
		})
	default:
		err = fmt.Errorf("core: compressor algo %v", cfg.Algo)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Area returns the instance's silicon area breakdown.
func (c *Compressor) Area() *area.Breakdown {
	b := area.NewBreakdown()
	b.Add("system-interface", area.SystemInterface)
	b.Add("lz77-encoder", area.LZ77EncoderLogic)
	b.Add("history-sram", area.SRAM(c.cfg.HistorySRAM))
	b.Add("hash-table", area.HashTable(c.cfg.HashTableEntries, c.cfg.HashAssociativity))
	if c.cfg.Algo == comp.ZStd {
		b.Add("huff-dict-builder", area.HuffDictBuilder+area.StatsLanes(c.cfg.StatsWidth))
		b.Add("huff-encoder", area.HuffEncoderLogic)
		b.Add("fse-dict-builders", 3*(area.FSEDictBuilder+area.StatsLanes(c.cfg.StatsWidth)))
		b.Add("fse-encoder", area.FSEEncoderLogic)
		b.Add("fse-tables", area.FSETables(3, c.cfg.FSETableLog, 8))
		b.Add("seq-pq-expander", area.SeqToCodePQ)
	}
	return b
}

// lzCycles charges the LZ77 hash-matcher pipeline: one probe per considered
// position, match extension at the compare width, literal passthrough.
func lzCycles(s lz77.Stats, res *Result) {
	c := float64(s.Positions) +
		float64(s.MatchBytes)/matchExtendBytesPerCycle +
		float64(s.LiteralBytes)/litPassBytesPerCycle
	res.chargeBytes(idLZ77, c, s.MatchBytes+s.LiteralBytes)
}

// Compress runs one accelerator call over a plaintext payload, returning the
// compressed bytes and the modeled call latency: the functional encode
// followed by the timing replay (Time) over instance-owned scratch.
func (c *Compressor) Compress(src []byte) (*Result, error) {
	c.encode(&c.scratch, c.outBuf(), src)
	return c.Time(&c.scratch)
}

// Trace encodes src once and returns the call's functional trace, which any
// Compressor with the same Config.FunctionalKey can Time. The trace is
// size-only (traceSizeOnly) and its Output is nil. The error is always nil; it
// is there so both directions trace alike.
func (c *Compressor) Trace(src []byte) (*Trace, error) {
	tr := new(Trace)
	c.traceSizeOnly(tr, src)
	return tr, nil
}

// compressSizeOnly is Compress without the frame: the same Result, Output
// nil, from a size-only encode into the instance's scratch trace. The owned
// output buffer of result-reuse mode is kept for the next Compress.
func (c *Compressor) compressSizeOnly(src []byte) (*Result, error) {
	out := c.scratch.Output
	c.traceSizeOnly(&c.scratch, src)
	res, err := c.Time(&c.scratch)
	c.scratch.Output = out
	return res, err
}

// traceSizeOnly runs the functional pipeline over src into tr with neither
// Snappy literal payloads nor ZStd entropy payloads written: both encoders'
// size-only paths yield the same statistics, Plan and frame length. The frame
// lands in the instance's discard buffer, of which only the length is kept,
// and tr.Output is left nil.
func (c *Compressor) traceSizeOnly(tr *Trace, src []byte) {
	c.setSizeOnly(true)
	c.encode(tr, c.discard[:0], src)
	c.setSizeOnly(false)
	c.discard, tr.Output = tr.Output, nil
}

// setSizeOnly switches the instance's encoder in or out of size-only emission.
func (c *Compressor) setSizeOnly(on bool) {
	if c.snap != nil {
		c.snap.SetSizeOnly(on)
	} else {
		c.zstd.SetSizeOnly(on)
	}
}

// Time charges a traced call under this instance's configuration and returns
// the modeled Result, exactly as Compress over the traced payload would: it is
// the one charge path of the compressor. The trace is only read.
func (c *Compressor) Time(tr *Trace) (*Result, error) {
	res, err := c.begin(tr)
	if err != nil {
		return nil, err
	}
	lzCycles(tr.lz, res)
	c.zstdEntropyCycles(tr.blocks, res)
	return c.end(res)
}

// encode runs the functional pipeline over src, appending the frame to dst
// and recording in tr what the timing model charges for. The ZStd encoder
// records the frame's Plan as it encodes — the description Inspect would parse
// back out — so the entropy-stage charges need no re-parse of the frame.
func (c *Compressor) encode(tr *Trace, dst, src []byte) {
	if c.cfg.Algo == comp.Snappy {
		dst = c.snap.AppendEncode(dst, src)
		tr.lz = c.snap.Stats()
	} else {
		var plan *zstdlite.Plan
		dst, plan = c.zstd.AppendEncodeWithPlan(dst, src)
		tr.lz = c.zstd.LZStats()
		tr.blocks = append(tr.blocks[:0], plan.Blocks...)
		for i := range tr.blocks {
			tr.blocks[i].Seqs = nil // encoder scratch; the encode charges read NumSeqs
		}
	}
	tr.seal(c.fkey, len(src), dst)
}

// zstdEntropyCycles derives the entropy-stage costs from the blocks of the
// frame the functional pipeline produced (none for Snappy): literal counts
// and sequence counts per block determine the dictionary-builder, table-build
// and encode times (§5.6-§5.7).
func (c *Compressor) zstdEntropyCycles(blocks []zstdlite.BlockInfo, res *Result) {
	for i := range blocks {
		b := &blocks[i]
		res.charge(idHeader, blockHeaderCycles)
		if !b.IsCompressed() {
			continue
		}
		lits := float64(b.LitCount)
		if b.LitCount > 0 {
			// Huffman dictionary builder: statistics at StatsWidth bytes per
			// cycle, then code assignment; encoder emits DefaultHuffEncLanes
			// symbols per cycle.
			res.charge(idHuffBuild, lits/float64(c.cfg.StatsWidth)+huffCodeAssignCycles)
			res.chargeBytes(idHuff, lits/DefaultHuffEncLanes, b.LitCount)
		}
		if n := float64(b.NumSeqs); n > 0 {
			// Three FSE dictionary builders run in parallel (Figure 10),
			// each walking its normalized-count table; the encoder then
			// processes one sequence per cycle, with extras packing
			// alongside.
			res.charge(idFSEBuild, n/float64(c.cfg.StatsWidth)+float64(int(1)<<c.cfg.FSETableLog))
			res.charge(idFSE, n+n/extrasPackPerCycle)
		}
	}
}
