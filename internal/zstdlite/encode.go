package zstdlite

import (
	"encoding/binary"
	"fmt"
	"slices"

	ibits "cdpu/internal/bits"
	"cdpu/internal/fse"
	"cdpu/internal/huffman"
	"cdpu/internal/lz77"
)

// Params selects encoder behaviour. The zero value takes defaults (level 3,
// window log 20).
type Params struct {
	// Level is the compression level, -7..22 as in ZStd. Higher levels buy
	// ratio with deeper match searching. The fleet default is 3 (§3.3.2).
	Level int
	// WindowLog is log2 of the history window (runtime parameter of both
	// the software library and the CDPU).
	WindowLog int
	// TableLog is the FSE table accuracy (compile-time CDPU parameter 12).
	// Default 9.
	TableLog int
	// HuffMaxBits bounds literal Huffman code lengths. Default 11.
	HuffMaxBits int
	// LZ, when non-nil, overrides the dictionary-stage configuration
	// entirely. The CDPU compressor model uses this to run the ZStd pipeline
	// over the Snappy-configured LZ77 encoder block, reproducing the paper's
	// hardware-vs-software ratio gap (§6.5).
	LZ *lz77.Config
	// Dict is a preset dictionary: frames encode matches into it and can
	// only be decoded with the same dictionary (§3.4 notes the buffer API
	// "sometimes with a separate dictionary"). The usable dictionary tail is
	// bounded by the window size.
	Dict []byte
	// DisableFSE forces raw (fixed-width) sequence-code streams, keeping
	// Huffman as the only entropy stage — the Flate-class pipeline. The
	// paper's generator frames exactly this difference: "transitioning from
	// Flate to ZStd would mostly entail adding an FSE module" (§3.4).
	DisableFSE bool
	// Checksum appends a 4-byte content checksum to the frame, verified at
	// decode time (ZStd's optional content-checksum feature).
	Checksum bool
}

// Levels bounds, matching ZStd's advertised range.
const (
	MinLevel = -7
	MaxLevel = 22
)

// withDefaults fills zero fields.
func (p Params) withDefaults() Params {
	if p.Level == 0 {
		p.Level = 3
	}
	if p.WindowLog == 0 {
		p.WindowLog = DefaultWindowLog
	}
	if p.TableLog == 0 {
		p.TableLog = 9
	}
	if p.HuffMaxBits == 0 {
		p.HuffMaxBits = 11
	}
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	p = p.withDefaults()
	switch {
	case p.Level < MinLevel || p.Level > MaxLevel:
		return fmt.Errorf("%w: level %d", ErrBadParams, p.Level)
	case p.WindowLog < MinWindowLog || p.WindowLog > MaxWindowLog:
		return fmt.Errorf("%w: window log %d", ErrBadParams, p.WindowLog)
	case p.TableLog < fse.MinTableLog || p.TableLog > fse.MaxTableLog:
		return fmt.Errorf("%w: table log %d", ErrBadParams, p.TableLog)
	case p.HuffMaxBits < 8 || p.HuffMaxBits > huffman.MaxBitsLimit:
		return fmt.Errorf("%w: huff max bits %d", ErrBadParams, p.HuffMaxBits)
	}
	if p.LZ != nil {
		return p.LZ.Validate()
	}
	return nil
}

// shapes are the four LZ77 tables of ZStd's level table, which trades search
// effort for ratio: each serves the levels up to maxLevel no earlier one does.
var shapes = [...]struct{ maxLevel, entries, ways int }{
	{-1, 1 << 12, 1},
	{9, 1 << 15, 2},
	{15, 1 << 16, 4},
	{MaxLevel, 1 << 17, 8},
}

// Shapes is the number of LZ77 table shapes.
const Shapes = len(shapes)

// Shape is the LZ77 table shape level selects (level 0, the default 3, is in
// 1–9's). Levels of one shape build the same encoder but for the window,
// which SetWindowLog sets per frame: a caller keeping encoders needs one each.
func Shape(level int) (s int) {
	for s < Shapes-1 && level > shapes[s].maxLevel {
		s++
	}
	return s
}

// lzConfig derives the dictionary-stage configuration from the level's shape
// and the window; negative levels skip, the rest search lazily.
func (p Params) lzConfig() lz77.Config {
	if p.LZ != nil {
		return *p.LZ
	}
	shape := shapes[Shape(p.Level)]
	return lz77.Config{
		WindowSize:    1 << p.WindowLog,
		TableEntries:  shape.entries,
		Associativity: shape.ways,
		// The format admits 3-byte matches (MinMatch), but a sequence costs
		// more bits than three literals under this entropy layout, so the
		// matcher only hunts for 4+ at every level.
		MinMatch:           4,
		Hash:               lz77.HashFibonacci,
		Contents:           lz77.ContentsOffsetAndTag,
		SkipIncompressible: p.Level < 0,
		Lazy:               p.Level > 0,
	}
}

// Encoder compresses frames under Params, the window set per frame, reusing
// dictionary state across calls. Not safe for concurrent use.
type Encoder struct {
	params  Params
	matcher *lz77.Matcher

	// Per-call scratch, reused across Encode calls so the steady-state frame
	// hot path stops allocating: block literals (full mode only), the
	// assembled block body, the three sequence-code lanes and the extra-bits
	// writer. None of these alias the returned frame (bodies are copied into
	// dst), so reuse is invisible to callers.
	litBuf    []byte
	bodyBuf   []byte
	dictBuf   []byte
	codeBuf   [3][]uint8
	extras    ibits.Writer
	streamBuf ibits.Writer
	planBuf   []blockPlan
	planSeqs  []lz77.Seq

	// Entropy-stage scratch: the literal Huffman builder and, per sequence-code
	// stream (LL, OF, ML), the normalized histogram and the FSE encode table
	// are rebuilt in place each block instead of reallocated.
	huffB     huffman.Builder
	normBuf   [3][]int
	encTables [3]fse.EncTable

	// plan describes the frame being emitted, block by block as encodeBlock
	// writes them (AppendEncodeWithPlan).
	plan Plan

	// Size-only entropy coding (SetSizeOnly): entropy payloads are emitted as
	// zeros of exactly the length the full coders would produce.
	sizeOnly bool
	zeroBuf  []byte
}

// SetSizeOnly toggles size-only entropy coding. When on, the encoder still
// runs the dictionary stage, block carving, table construction and every
// mode decision exactly as before — so the frame layout, every recorded Plan
// field and the total frame length are bit-identical to a full encode — but
// the Huffman/FSE/extra-bits payloads are emitted as zero bytes of exactly
// the length the full bitstream writers would produce, skipping the
// per-symbol bit-writing loops. The literal histogram is read straight from
// the source (no literal copy), and the three sequence-code streams are
// sized in one walk over their built tables (fse.EncodedBits3).
//
// A size-only frame is NOT decodable; it exists for replay pipelines that
// charge from the recorded Plan and the frame's byte counts without ever
// entropy-decoding the payload (core.Device.ExecWithPlan). Callers that may hand the
// frame to a real decoder — corruption storms, unplanned decode paths — must
// keep size-only off.
func (e *Encoder) SetSizeOnly(on bool) { e.sizeOnly = on }

// zeroBytes returns n zero bytes of reused scratch (never written to, so it
// stays zero).
func (e *Encoder) zeroBytes(n int) []byte {
	if cap(e.zeroBuf) < n {
		e.zeroBuf = make([]byte, n)
	}
	return e.zeroBuf[:n]
}

// Plan is the FrameInfo an Encoder records of the frame it just produced:
// what a decompressor model would otherwise recover by parsing the frame
// (block carving, literal coding choices, sequence streams), equal to what
// Inspect parses from the same frame in everything but the payload bytes,
// which it leaves out. Its Seqs alias encoder scratch, so a Plan is valid
// only until the encoder's next Encode call.
type Plan = FrameInfo

// NewEncoder returns an Encoder for p.
func NewEncoder(p Params) (*Encoder, error) {
	p = p.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	m, err := lz77.NewMatcher(p.lzConfig())
	if err != nil {
		return nil, err
	}
	return &Encoder{params: p, matcher: m}, nil
}

// SetWindowLog sets the window of the frames that follow, header and match
// search (0 is DefaultWindowLog). It bounds offsets, not the match table, so
// one Encoder serves every window, as one CDPU does (§5.8).
func (e *Encoder) SetWindowLog(w int) error {
	p := e.params
	p.WindowLog = w
	if err := p.Validate(); err != nil {
		return err
	}
	e.params = p.withDefaults()
	e.matcher.SetWindow(1 << e.params.WindowLog)
	return nil
}

// LZStats returns dictionary-stage statistics for the most recent block.
func (e *Encoder) LZStats() lz77.Stats { return e.matcher.Stats() }

// Encode compresses src into a zstdlite frame. The whole payload is parsed
// with a frame-wide match window (matches may cross block boundaries, as in
// ZStd), optionally primed with the encoder's preset dictionary.
func (e *Encoder) Encode(src []byte) []byte {
	return e.AppendEncode(nil, src)
}

// AppendEncode compresses src, appending the frame to dst — the
// buffer-reusing form for callers that replay many payloads.
func (e *Encoder) AppendEncode(dst, src []byte) []byte {
	e.matcher.ResetStats()
	dst = e.appendFrameHeader(dst, len(src))
	dict := e.usableDict()
	data := src
	if len(dict) > 0 {
		e.dictBuf = append(append(e.dictBuf[:0], dict...), src...)
		data = e.dictBuf
	}
	seqs := e.matcher.ParsePrefixed(data, len(dict))
	plans := e.splitBlocks(seqs, len(src))
	e.plan.Blocks = slices.Grow(e.plan.Blocks, len(plans))
	for i, p := range plans {
		blockData := data[len(dict)+p.start : len(dict)+p.start+p.size]
		e.plan.Blocks = append(e.plan.Blocks, BlockInfo{})
		dst = e.encodeBlock(dst, &e.plan.Blocks[i], blockData, p.seqs, i == len(plans)-1)
	}
	if e.params.Checksum {
		e.plan.Checksum = contentChecksum(src)
		dst = binary.LittleEndian.AppendUint32(dst, e.plan.Checksum)
	}
	return dst
}

// AppendEncodeWithPlan compresses src like AppendEncode and additionally
// returns the frame's Plan, valid only until the next Encode call on this
// encoder.
func (e *Encoder) AppendEncodeWithPlan(dst, src []byte) ([]byte, *Plan) {
	return e.AppendEncode(dst, src), &e.plan
}

// usableDict returns the dictionary tail within the window.
func (e *Encoder) usableDict() []byte {
	d := e.params.Dict
	if w := 1 << e.params.WindowLog; len(d) > w {
		d = d[len(d)-w:]
	}
	return d
}

// appendFrameHeader emits magic, flagged window byte, optional dictionary
// ID, and the content size (contentSize < 0 marks a streaming frame of
// unknown size), and starts the frame's Plan from what it wrote.
func (e *Encoder) appendFrameHeader(dst []byte, contentSize int) []byte {
	e.plan = Plan{
		WindowLog:   e.params.WindowLog,
		ContentSize: contentSize,
		NeedsDict:   len(e.params.Dict) > 0,
		HasChecksum: e.params.Checksum,
		Blocks:      e.plan.Blocks[:0],
	}
	dst = append(dst, frameMagic[:]...)
	windowByte := byte(e.params.WindowLog)
	if e.plan.NeedsDict {
		windowByte |= flagDictionary
	}
	if contentSize < 0 {
		windowByte |= flagUnknownSize
	}
	if e.params.Checksum {
		windowByte |= flagChecksum
	}
	dst = append(dst, windowByte)
	if e.plan.NeedsDict {
		e.plan.DictID = DictID(e.params.Dict)
		dst = append(dst, e.plan.DictID)
	}
	if contentSize >= 0 {
		dst = ibits.AppendUvarint(dst, uint64(contentSize))
	}
	return dst
}

// blockPlan is one block's slice of the frame-wide parse. seqs points into
// the encoder's shared planSeqs backing ([lo:hi]), assigned once the whole
// frame is carved (appends before that could move the backing array).
type blockPlan struct {
	start  int // offset within the payload
	size   int
	lo, hi int
	seqs   []lz77.Seq
}

// splitBlocks carves a frame-wide sequence list into MaxBlockSize blocks,
// splitting literal runs and matches that straddle a boundary. A split match
// continues in the next block with the same offset, which stays valid
// because the decoder's window is frame-wide.
func (e *Encoder) splitBlocks(seqs []lz77.Seq, total int) []blockPlan {
	plans := e.planBuf[:0]
	all := e.planSeqs[:0]
	cur := blockPlan{}
	room := MaxBlockSize
	if total < room {
		room = total
	}
	flush := func() {
		cur.hi = len(all)
		plans = append(plans, cur)
		nextStart := cur.start + cur.size
		cur = blockPlan{start: nextStart, lo: len(all)}
		room = MaxBlockSize
		if total-nextStart < room {
			room = total - nextStart
		}
	}
	push := func(s lz77.Seq) {
		if s.MatchLen == 0 {
			// A terminal literal run carries no match: zero the offset so
			// recorded plans compare equal to decoder-parsed sequences
			// (which leave it 0). The wire format never encodes it.
			s.Offset = 0
		}
		all = append(all, s)
		cur.size += s.LitLen + s.MatchLen
		room -= s.LitLen + s.MatchLen
		if room == 0 && cur.start+cur.size < total {
			flush()
		}
	}
	for _, s := range seqs {
		for s.LitLen+s.MatchLen > room {
			take := room // capture: push refreshes room when the block fills
			if s.LitLen >= take {
				push(lz77.Seq{LitLen: take})
				s.LitLen -= take
			} else {
				m := take - s.LitLen
				push(lz77.Seq{LitLen: s.LitLen, Offset: s.Offset, MatchLen: m})
				s.LitLen = 0
				s.MatchLen -= m
			}
		}
		if s.LitLen+s.MatchLen > 0 {
			push(s)
		}
	}
	if cur.size > 0 || len(plans) == 0 {
		cur.hi = len(all)
		plans = append(plans, cur)
	}
	for i := range plans {
		plans[i].seqs = all[plans[i].lo:plans[i].hi]
	}
	e.planBuf = plans
	e.planSeqs = all
	return plans
}

// Encode compresses src with default parameters.
func Encode(src []byte) []byte {
	e, err := NewEncoder(Params{})
	if err != nil {
		panic(err) // defaults are always valid
	}
	return e.Encode(src)
}

// encodeBlock appends one block (header + body) to dst and describes it in
// info as actually emitted (RLE and raw fallbacks included). The caller
// supplies the block's slice of the frame-wide parse, whose literals the
// block's bytes hold.
func (e *Encoder) encodeBlock(dst []byte, info *BlockInfo, block []byte, seqs []lz77.Seq, last bool) []byte {
	lastBit := byte(0)
	if last {
		lastBit = 1
	}
	// RLE block: all bytes identical. (Its bytes still join the frame
	// history; later blocks may reference them.)
	if allSame(block) {
		*info = BlockInfo{Type: blockRLE, RawSize: len(block)}
		dst = append(dst, byte(blockRLE<<1)|lastBit)
		dst = ibits.AppendUvarint(dst, uint64(len(block)))
		return append(dst, block[0])
	}
	*info = BlockInfo{Type: blockCompressed, RawSize: len(block)}
	body := e.appendLiteralsSection(e.bodyBuf[:0], block, seqs, info)
	body = e.appendSequencesSection(body, seqs, info)
	e.bodyBuf = body[:0] // keep the (possibly regrown) buffer for the next block
	if len(body) >= len(block) {
		// Incompressible, or the empty block that ends an empty frame: raw.
		*info = BlockInfo{Type: blockRaw, RawSize: len(block)}
		dst = append(dst, byte(blockRaw<<1)|lastBit)
		dst = ibits.AppendUvarint(dst, uint64(len(block)))
		return append(dst, block...)
	}
	info.CompSize = len(body)
	dst = append(dst, byte(blockCompressed<<1)|lastBit)
	dst = ibits.AppendUvarint(dst, uint64(len(block)))
	dst = ibits.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// allSame reports whether b is one byte repeated.
func allSame(b []byte) bool {
	for _, c := range b {
		if c != b[0] {
			return false
		}
	}
	return len(b) > 0
}

// appendLiteralsSection emits: mode byte, varint literal count, then for
// Huffman mode a varint byte-length-prefixed bitstream holding the code
// table and codes. The literals are the bytes of block that seqs do not
// copy. info receives the literal-coding facts as a decoder would parse them
// back.
func (e *Encoder) appendLiteralsSection(dst, block []byte, seqs []lz77.Seq, info *BlockInfo) []byte {
	var hist [256]int
	n := literalHistogram(&hist, block, seqs)
	info.LitMode, info.LitCount = litRaw, n
	huffBytes, maxBits, lensN := e.huffmanLiterals(&hist, block, seqs)
	if huffBytes == nil || len(huffBytes) >= n {
		dst = append(dst, litRaw)
		dst = ibits.AppendUvarint(dst, uint64(n))
		return lz77.AppendLiteralsAt(dst, block, 0, seqs)
	}
	info.LitMode, info.LitPayload = litHuffman, len(huffBytes)
	info.HuffMaxBits, info.HuffLensN = maxBits, lensN
	dst = append(dst, litHuffman)
	dst = ibits.AppendUvarint(dst, uint64(n))
	dst = ibits.AppendUvarint(dst, uint64(len(huffBytes)))
	return append(dst, huffBytes...)
}

// literalHistogram adds the literal bytes seqs take from block to hist and
// returns their count. Both modes histogram the source in place; only a full
// encode copies the literals out, for the Huffman coder.
func literalHistogram(hist *[256]int, block []byte, seqs []lz77.Seq) int {
	pos, n := 0, 0
	for _, s := range seqs {
		for _, c := range block[pos : pos+s.LitLen] {
			hist[c]++
		}
		n += s.LitLen
		pos += s.LitLen + s.MatchLen
	}
	return n
}

// huffmanLiterals returns the Huffman-coded literal stream (table + codes)
// for the literal histogram hist of block's seqs, with the table's max code
// length and serialized length count, or nil if the literals are absent,
// degenerate or incompressible.
func (e *Encoder) huffmanLiterals(hist *[256]int, block []byte, seqs []lz77.Seq) (stream []byte, maxBits, lensN int) {
	table, err := e.huffB.Build(hist[:], e.params.HuffMaxBits)
	if err != nil {
		return nil, 0, 0
	}
	lensN = len(table.Lens)
	for lensN > 0 && table.Lens[lensN-1] == 0 {
		lensN--
	}
	if e.sizeOnly {
		// WriteTable emits a 9-bit count plus 4 bits per serialized length;
		// the code bits follow from the histogram already in hand. Same
		// padding as the bitstream writer: round up to whole bytes.
		bits := 9 + 4*lensN
		for s, n := range hist {
			if n > 0 {
				bits += n * int(table.Lens[s])
			}
		}
		return e.zeroBytes((bits + 7) / 8), table.MaxBits, lensN
	}
	e.litBuf = lz77.AppendLiteralsAt(e.litBuf[:0], block, 0, seqs)
	// The stream scratch is free here: sequence-section encoding only starts
	// after the literals section is fully copied into the block body.
	w := &e.streamBuf
	w.Reset()
	table.WriteTable(w)
	if err := e.huffB.Encoder().Encode(w, e.litBuf); err != nil {
		return nil, 0, 0
	}
	return w.Bytes(), table.MaxBits, lensN
}

// appendSequencesSection emits: varint sequence count, then the three code
// streams (LL, OF, ML) and the shared extra-bits stream. info receives the
// per-stream coding modes, table logs and the sequence list. The three
// streams are histogrammed as their codes are produced and their FSE tables
// built before any stream is emitted, so a size-only encode can size all
// three coded streams in one walk.
func (e *Encoder) appendSequencesSection(dst []byte, seqs []lz77.Seq, info *BlockInfo) []byte {
	dst = ibits.AppendUvarint(dst, uint64(len(seqs)))
	info.NumSeqs, info.Seqs = len(seqs), seqs
	if len(seqs) == 0 {
		return dst
	}
	for i := range e.codeBuf {
		if cap(e.codeBuf[i]) < len(seqs) {
			e.codeBuf[i] = make([]uint8, len(seqs))
		}
		e.codeBuf[i] = e.codeBuf[i][:len(seqs)]
	}
	llCodes, ofCodes, mlCodes := e.codeBuf[0], e.codeBuf[1], e.codeBuf[2]
	extras := &e.extras
	extras.Reset()
	reps := newRepHistory() // per-block recent-offset state, as the decoder's
	ebits := 0              // size-only: extras length in bits, no writes
	var hist [3][maxSeqCode]int
	for i, s := range seqs {
		var w uint8
		var x uint32
		llCodes[i], x, w = seqCode(uint32(s.LitLen))
		hist[0][llCodes[i]]++
		if e.sizeOnly {
			ebits += int(w)
		} else {
			extras.WriteBits(uint64(x), uint(w))
		}
		if s.MatchLen == 0 {
			// Terminal literal run: offset code 0 / matchlen code 0 encode
			// "no match" (offset value 0 is otherwise impossible).
			ofCodes[i], mlCodes[i] = 0, 0
			hist[1][0]++
			hist[2][0]++
			continue
		}
		ofCodes[i], x, w = seqCode(reps.encode(s.Offset))
		hist[1][ofCodes[i]]++
		if e.sizeOnly {
			ebits += int(w)
		} else {
			extras.WriteBits(uint64(x), uint(w))
		}
		// Match lengths are coded directly (not biased by MinMatch): block
		// splitting can leave match continuations shorter than MinMatch.
		mlCodes[i], x, w = seqCode(uint32(s.MatchLen))
		hist[2][mlCodes[i]]++
		if e.sizeOnly {
			ebits += int(w)
		} else {
			extras.WriteBits(uint64(x), uint(w))
		}
	}
	var fseOK [3]bool
	for s := range fseOK {
		fseOK[s] = e.buildCodeTable(s, hist[s][:])
	}
	var codedBits [3]int // size-only: each FSE-coded stream's exact length
	if e.sizeOnly {
		t := &e.encTables
		if fseOK == [3]bool{true, true, true} {
			codedBits[0], codedBits[1], codedBits[2] = fse.EncodedBits3(&t[0], &t[1], &t[2], llCodes, ofCodes, mlCodes)
		} else {
			for s, ok := range fseOK {
				if ok {
					codedBits[s] = t[s].EncodedBits(e.codeBuf[s])
				}
			}
		}
	}
	for s, codes := range e.codeBuf {
		dst, info.SeqModes[s], info.FSETableLogs[s] = e.appendCodeStream(dst, s, codes, fseOK[s], codedBits[s])
	}
	if e.sizeOnly {
		sz := (ebits + 7) / 8
		dst = ibits.AppendUvarint(dst, uint64(sz))
		return append(dst, e.zeroBytes(sz)...)
	}
	eb := extras.Bytes()
	dst = ibits.AppendUvarint(dst, uint64(len(eb)))
	return append(dst, eb...)
}

// buildCodeTable builds stream s's FSE table from the histogram of its codes
// into e.encTables[s] (normalized counts in e.normBuf[s]) and reports whether
// the stream can be FSE-coded: not under DisableFSE, the Flate-class
// configuration, nor when the codes are degenerate (a single symbol).
func (e *Encoder) buildCodeTable(s int, hist []int) bool {
	if e.params.DisableFSE {
		return false
	}
	norm, err := fse.AppendNormalize(e.normBuf[s][:0], hist, e.params.TableLog)
	if err != nil {
		return false
	}
	e.normBuf[s] = norm
	return e.encTables[s].Init(norm, e.params.TableLog) == nil
}

// appendCodeStream emits sequence-code stream s: mode byte, varint byte
// length, payload. FSE mode (when fseOK, the table built by buildCodeTable)
// embeds the normalized counts ahead of the coded bits, and is kept only if
// it is shorter than raw mode, which packs 6-bit codes. A size-only encode
// passes the coded stream's length in codedBits. Returns the coding mode
// chosen and the FSE table log (0 in raw mode), matching what
// parseCodeStream reports.
func (e *Encoder) appendCodeStream(dst []byte, s int, codes []uint8, fseOK bool, codedBits int) (out []byte, mode, tableLog int) {
	tl := e.params.TableLog
	rawSize := (len(codes)*seqCodeBits + 7) / 8
	w := &e.streamBuf // payload scratch; contents are copied into dst below
	if fseOK {
		if e.sizeOnly {
			// WriteNorm emits 8+4 header bits plus (tableLog+1) bits per
			// count with trailing zeros trimmed.
			norm := e.normBuf[s]
			n := len(norm)
			for n > 0 && norm[n-1] == 0 {
				n--
			}
			if sz := (8 + 4 + n*(tl+1) + codedBits + 7) / 8; sz < rawSize {
				dst = append(dst, seqFSE)
				dst = ibits.AppendUvarint(dst, uint64(sz))
				return append(dst, e.zeroBytes(sz)...), seqFSE, tl
			}
		} else {
			w.Reset()
			if fse.WriteNorm(w, e.normBuf[s], tl) == nil && e.encTables[s].Encode(w, codes) == nil {
				payload := w.Bytes()
				if len(payload) < rawSize {
					dst = append(dst, seqFSE)
					dst = ibits.AppendUvarint(dst, uint64(len(payload)))
					return append(dst, payload...), seqFSE, tl
				}
			}
		}
	}
	// Raw fallback: fixed-width codes (degenerate or FSE-unprofitable).
	if e.sizeOnly {
		dst = append(dst, seqRaw)
		dst = ibits.AppendUvarint(dst, uint64(rawSize))
		return append(dst, e.zeroBytes(rawSize)...), seqRaw, 0
	}
	w.Reset()
	for _, c := range codes {
		w.WriteBits(uint64(c), seqCodeBits)
	}
	payload := w.Bytes()
	dst = append(dst, seqRaw)
	dst = ibits.AppendUvarint(dst, uint64(len(payload)))
	return append(dst, payload...), seqRaw, 0
}
