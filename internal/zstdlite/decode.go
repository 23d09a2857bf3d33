package zstdlite

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	ibits "cdpu/internal/bits"
	"cdpu/internal/fse"
	"cdpu/internal/huffman"
	"cdpu/internal/lz77"
)

// The frame layout is stated once, by three parsers and one executor:
// parseFrameHeader, parseBlock and parseTrailer each read one structure off
// the front of a byte slice, and BlockInfo.appendTo executes a parsed block.
// Inspect and Materialize drive them over a whole frame held in memory, the
// streaming Reader over a frame arriving a block at a time, so every bound on
// what a header may declare is checked in one place for both.

// FrameInfo describes a frame: what its header declares and, block by block,
// everything the CDPU decompressor model needs to replay the hardware
// pipeline (table builds, literal expansion, sequence execution) without
// re-parsing the wire format. Inspect parses one out of a frame; an Encoder
// records the same description of the frame it emits (Plan).
type FrameInfo struct {
	WindowLog   int
	ContentSize int // -1 when the producer did not record it (streaming)
	NeedsDict   bool
	DictID      byte
	HasChecksum bool
	Checksum    uint32
	Blocks      []BlockInfo
}

// BlockInfo describes one block of a frame.
type BlockInfo struct {
	Type     int // blockRaw, blockRLE, blockCompressed
	RawSize  int // uncompressed bytes
	CompSize int // compressed body bytes (compressed blocks only)

	// Literals-section detail (compressed blocks only).
	LitMode      int    // litRaw or litHuffman
	LitCount     int    // decoded literal bytes
	LitPayload   int    // compressed literal bytes (huffman mode)
	HuffMaxBits  int    // decode-table width (huffman mode)
	HuffLensN    int    // serialized code lengths (huffman mode)
	SeqModes     [3]int // per-stream coding mode
	FSETableLogs [3]int // per-stream accuracy (FSE mode)
	NumSeqs      int    // len(Seqs), for a holder that keeps the description and not the commands
	Seqs         []lz77.Seq

	// The block's payload, which only a parsed block carries: the bytes of a
	// raw block or the decoded literals of a compressed one (aliasing the
	// parsed input where the frame stores them verbatim), and an RLE block's
	// byte.
	Literals []byte
	RLEByte  byte
}

// IsCompressed reports whether the block ran the full pipeline.
func (b *BlockInfo) IsCompressed() bool { return b.Type == blockCompressed }

// Decode decompresses a zstdlite frame (which must not require a preset
// dictionary; use DecodeWithDict for those).
func Decode(src []byte) ([]byte, error) {
	return DecodeWithDict(src, nil)
}

// DecodeWithDict decompresses a frame, supplying the preset dictionary it
// was encoded against (nil for ordinary frames).
func DecodeWithDict(src, dict []byte) ([]byte, error) {
	info, err := Inspect(src)
	if err != nil {
		return nil, err
	}
	return materialize(info, dict, MaxDecodedLen)
}

// DecodeLimited decompresses a frame, rejecting any stream whose blocks
// declare more than maxLen output bytes with ErrSizeLimit, before the output
// is allocated. maxLen <= 0 takes the default MaxDecodedLen.
func DecodeLimited(src []byte, maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = MaxDecodedLen
	}
	info, err := Inspect(src)
	if err != nil {
		return nil, err
	}
	return materialize(info, nil, maxLen)
}

// Materialize executes a parsed frame's blocks, producing the decompressed
// bytes. Split from Inspect so the CDPU model can account for parse/table
// costs and execution costs separately.
func Materialize(info *FrameInfo) ([]byte, error) {
	return materialize(info, nil, MaxDecodedLen)
}

// materialize executes info's blocks against a preset dictionary. The match
// window is frame-wide: copies may reach across block boundaries and into
// the dictionary, bounded by 2^WindowLog.
func materialize(info *FrameInfo, dict []byte, maxLen int) ([]byte, error) {
	hist, err := info.history(dict)
	if err != nil {
		return nil, err
	}
	// A block produces exactly its declared size or fails, so the blocks'
	// sum is the output's size: checked against the header and the caller's
	// limit before anything is reserved, and reserved once, with the slack the
	// last block's replay may write past its end.
	total := 0
	for i := range info.Blocks {
		total += info.Blocks[i].RawSize
	}
	if err := info.checkSize(total, maxLen, true); err != nil {
		return nil, err
	}
	out := append(make([]byte, 0, len(hist)+total+lz77.Slack), hist...)
	for i := range info.Blocks {
		if out, err = info.Blocks[i].appendTo(out, 1<<info.WindowLog); err != nil {
			return nil, err
		}
	}
	out = out[len(hist):]
	if info.HasChecksum {
		if err := info.checkSum(contentChecksum(out)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// history checks the caller's dictionary against the one the header asks
// for and returns the part of it a copy can reach: what the frame's output
// starts from.
func (info *FrameInfo) history(dict []byte) ([]byte, error) {
	if !info.NeedsDict {
		return nil, nil
	}
	if dict == nil {
		return nil, fmt.Errorf("%w: frame requires a preset dictionary", ErrDictionary)
	}
	if DictID(dict) != info.DictID {
		return nil, fmt.Errorf("%w: dictionary id %#02x does not match frame's %#02x",
			ErrDictionary, DictID(dict), info.DictID)
	}
	if window := 1 << info.WindowLog; len(dict) > window {
		dict = dict[len(dict)-window:]
	}
	return dict, nil
}

// checkSize holds the bytes a frame's blocks have declared so far against
// the content size its header recorded — never more, and exactly that once
// the last block is in (done) — and against the caller's limit.
func (info *FrameInfo) checkSize(produced, maxLen int, done bool) error {
	switch {
	case info.ContentSize >= 0 && (produced > info.ContentSize || done && produced != info.ContentSize):
		return fmt.Errorf("%w: blocks declare %d of %d bytes", ErrCorrupt, produced, info.ContentSize)
	case produced > maxLen:
		return fmt.Errorf("%w: output %d > %d", ErrSizeLimit, produced, maxLen)
	}
	return nil
}

// checkSum holds the output's checksum against the trailer's.
func (info *FrameInfo) checkSum(got uint32) error {
	if got != info.Checksum {
		return fmt.Errorf("%w: content checksum %#08x != recorded %#08x", ErrCorrupt, got, info.Checksum)
	}
	return nil
}

// appendTo executes the block, appending the RawSize bytes it stands for to
// out. What out already holds is the frame's history — the dictionary, then
// the earlier blocks — which copies may reach window bytes back into. The
// block is written by index into out grown by RawSize+lz77.Slack: a
// compressed block through lz77.Replay, a raw one by one copy, an RLE one as
// a copy at offset 1.
func (b *BlockInfo) appendTo(out []byte, window int) ([]byte, error) {
	d := len(out)
	end := d + b.RawSize
	out = slices.Grow(out, b.RawSize+lz77.Slack)[:end+lz77.Slack]
	produced := 0
	switch b.Type {
	case blockRaw:
		if produced = len(b.Literals); produced == b.RawSize {
			copy(out[d:end], b.Literals)
		}
	case blockRLE:
		if b.RawSize > 0 {
			out[d] = b.RLEByte
			lz77.CopyMatch(out, d+1, 1, b.RawSize-1)
		}
		produced = b.RawSize
	case blockCompressed:
		n, err := lz77.Replay(out, d, end, b.Seqs, b.Literals, window)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		produced = n - d
	}
	if produced != b.RawSize {
		return nil, fmt.Errorf("%w: block produced %d of %d bytes", ErrCorrupt, produced, b.RawSize)
	}
	return out[:end], nil
}

// errShort reports that the input ends inside the structure being read; the
// parser returns, in place of the bytes consumed, how many it now knows the
// structure needs. To a driver holding the whole frame that is corruption.
// The Reader reads up to the count and asks again.
var errShort = fmt.Errorf("%w: truncated", ErrCorrupt)

// sizeField reads the varint at src[pos:], which may not exceed max, and
// returns it with the position after it.
func sizeField(src []byte, pos int, max uint64, what string) (v, next int, err error) {
	x, n, err := ibits.Uvarint(src[pos:])
	switch {
	case err != nil && len(src)-pos < binary.MaxVarintLen64:
		return 0, len(src) + 1, errShort // a longer input may still complete it
	case err != nil || x > max:
		return 0, 0, fmt.Errorf("%w: %s", ErrCorrupt, what)
	}
	return int(x), pos + n, nil
}

// parseFrameHeader reads magic, flags, optional dictionary ID and content
// size off the front of src, returning the byte offset of the first block.
func parseFrameHeader(src []byte) (info FrameInfo, n int, err error) {
	if !bytes.HasPrefix(frameMagic[:], src[:min(len(src), len(frameMagic))]) {
		return info, 0, ErrMagic
	}
	if len(src) < 5 {
		return info, 5, errShort
	}
	flags := src[4]
	info = FrameInfo{
		WindowLog:   int(flags &^ (flagUnknownSize | flagDictionary | flagChecksum)),
		ContentSize: -1,
		NeedsDict:   flags&flagDictionary != 0,
		HasChecksum: flags&flagChecksum != 0,
	}
	if info.WindowLog < MinWindowLog || info.WindowLog > MaxWindowLog {
		return info, 0, fmt.Errorf("%w: %d", ErrWindow, info.WindowLog)
	}
	pos := 5
	if info.NeedsDict {
		if pos == len(src) {
			return info, pos + 1, errShort
		}
		info.DictID = src[pos]
		pos++
	}
	if flags&flagUnknownSize == 0 {
		// Nothing is ever reserved on this number's word: checkSize holds the
		// blocks to it.
		info.ContentSize, pos, err = sizeField(src, pos, math.MaxInt, "content size")
	}
	return info, pos, err
}

// parseBlock reads the block at the front of src — header, then body — into
// b, decoding entropy-coded sections but executing no copies, and returns
// the bytes consumed and whether the block is the frame's last. A block
// holds at most MaxBlockSize bytes raw and, as the encoder emits a
// compressed body only when it is smaller than its block, compressed: no
// driver reserves more than that on a header's word.
func parseBlock(src []byte, b *BlockInfo) (n int, last bool, err error) {
	if len(src) == 0 {
		return 1, false, errShort
	}
	last = src[0]&1 == 1
	*b = BlockInfo{Type: int(src[0] >> 1)}
	pos := 1
	if b.RawSize, pos, err = sizeField(src, pos, MaxBlockSize, "block size"); err != nil {
		return pos, last, err
	}
	body := b.RawSize
	switch b.Type {
	case blockRaw:
	case blockRLE:
		body = 1
	case blockCompressed:
		if b.CompSize, pos, err = sizeField(src, pos, MaxBlockSize, "compressed size"); err != nil {
			return pos, last, err
		}
		body = b.CompSize
	default:
		return 0, last, fmt.Errorf("%w: block type %d", ErrCorrupt, b.Type)
	}
	end := pos + body
	if end > len(src) {
		return end, last, errShort
	}
	switch b.Type {
	case blockRaw:
		b.Literals = src[pos:end]
	case blockRLE:
		b.RLEByte = src[pos]
	case blockCompressed:
		err = parseCompressedBody(src[pos:end], b)
	}
	return end, last, err
}

// parseTrailer reads what follows the last block: the content checksum, when
// the header flagged one.
func (info *FrameInfo) parseTrailer(src []byte) (n int, err error) {
	if !info.HasChecksum {
		return 0, nil
	}
	if len(src) < 4 {
		return 4, errShort
	}
	info.Checksum = binary.LittleEndian.Uint32(src)
	return 4, nil
}

// Inspect parses a frame, decoding entropy-coded sections but not executing
// LZ77 copies.
func Inspect(src []byte) (*FrameInfo, error) {
	info, pos, err := parseFrameHeader(src)
	if err != nil {
		return nil, err
	}
	total := 0
	for last := false; !last; {
		info.Blocks = append(info.Blocks, BlockInfo{})
		b := &info.Blocks[len(info.Blocks)-1]
		var n int
		if n, last, err = parseBlock(src[pos:], b); err != nil {
			return nil, err
		}
		pos += n
		total += b.RawSize
		if err := info.checkSize(total, MaxDecodedLen, last); err != nil {
			return nil, err
		}
	}
	n, err := info.parseTrailer(src[pos:])
	if err != nil {
		return nil, err
	}
	if pos+n != len(src) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(src)-pos-n)
	}
	return &info, nil
}

func parseCompressedBody(body []byte, block *BlockInfo) error {
	pos := 0
	if pos >= len(body) {
		return fmt.Errorf("%w: empty compressed body", ErrCorrupt)
	}
	block.LitMode = int(body[pos])
	pos++
	litCount64, n, err := ibits.Uvarint(body[pos:])
	if err != nil || litCount64 > MaxBlockSize {
		return fmt.Errorf("%w: literal count", ErrCorrupt)
	}
	pos += n
	block.LitCount = int(litCount64)
	switch block.LitMode {
	case litRaw:
		if pos+block.LitCount > len(body) {
			return fmt.Errorf("%w: raw literals overrun body", ErrCorrupt)
		}
		block.Literals = body[pos : pos+block.LitCount]
		pos += block.LitCount
	case litHuffman:
		payload64, n, err := ibits.Uvarint(body[pos:])
		if err != nil || payload64 > uint64(len(body)) {
			return fmt.Errorf("%w: literal payload size", ErrCorrupt)
		}
		pos += n
		payload := int(payload64)
		if pos+payload > len(body) {
			return fmt.Errorf("%w: huffman literals overrun body", ErrCorrupt)
		}
		block.LitPayload = payload
		r := ibits.NewReader(body[pos : pos+payload])
		// The serialized code lengths are the table's full description; the
		// process-wide cache rebuilds the decoder only on first sight.
		var lensBuf [256]uint8
		lens, err := huffman.AppendReadLengths(lensBuf[:0], r)
		if err != nil {
			return fmt.Errorf("%w: huffman table: %v", ErrCorrupt, err)
		}
		dec, err := tables.huffDecoder(lens)
		if err != nil {
			return fmt.Errorf("%w: huffman table: %v", ErrCorrupt, err)
		}
		block.HuffMaxBits = dec.MaxBits()
		block.HuffLensN = len(lens)
		lits, err := dec.Decode(r, make([]byte, 0, block.LitCount), block.LitCount)
		if err != nil {
			return fmt.Errorf("%w: huffman literals: %v", ErrCorrupt, err)
		}
		block.Literals = lits
		pos += payload
	default:
		return fmt.Errorf("%w: literal mode %d", ErrCorrupt, block.LitMode)
	}
	// Sequences.
	numSeqs64, n, err := ibits.Uvarint(body[pos:])
	if err != nil || numSeqs64 > MaxBlockSize {
		return fmt.Errorf("%w: sequence count", ErrCorrupt)
	}
	pos += n
	numSeqs := int(numSeqs64)
	if numSeqs == 0 {
		if block.LitCount != block.RawSize {
			return fmt.Errorf("%w: literals-only block size mismatch", ErrCorrupt)
		}
		return nil
	}
	// The three code streams are three independent lanes. Each is opened —
	// mode, payload, table, first state — before the extras, as the streams
	// lie in the body; then one loop walks all three and the extras together,
	// a sequence per step, the way the hardware's three FSE lanes do.
	var lanes [3]seqLane
	for s := range lanes {
		adv, err := lanes[s].open(body[pos:], block, s)
		if err != nil {
			return err
		}
		pos += adv
	}
	extraLen64, n, err := ibits.Uvarint(body[pos:])
	if err != nil || extraLen64 > uint64(len(body)) {
		return fmt.Errorf("%w: extras size", ErrCorrupt)
	}
	pos += n
	extraLen := int(extraLen64)
	if pos+extraLen > len(body) {
		return fmt.Errorf("%w: extras overrun body", ErrCorrupt)
	}
	extras := ibits.NewReader(body[pos : pos+extraLen])
	pos += extraLen
	if pos != len(body) {
		return fmt.Errorf("%w: %d trailing body bytes", ErrCorrupt, len(body)-pos)
	}
	seqs := make([]lz77.Seq, numSeqs)
	total := 0
	reps := newRepHistory() // mirrors the encoder's per-block offset state
	ll, of, ml := &lanes[0], &lanes[1], &lanes[2]
	for i := range seqs {
		el, eo, em := ll.entries[ll.state], of.entries[of.state], ml.entries[ml.state]
		llCode, ofCode, mlCode := el.Sym, eo.Sym, em.Sym
		if llCode >= maxSeqCode || ofCode >= maxSeqCode || mlCode >= maxSeqCode {
			return fmt.Errorf("%w: sequence code %d/%d/%d", ErrCorrupt, llCode, ofCode, mlCode)
		}
		seq := &seqs[i]
		w := uint(extraWidth(llCode))
		extras.Fill(w)
		seq.LitLen = int(seqValue(llCode, uint32(extras.Take(w))))
		if ofCode != 0 || mlCode != 0 { // both zero: the terminal literal run
			w = uint(extraWidth(ofCode))
			extras.Fill(w)
			ofValue := seqValue(ofCode, uint32(extras.Take(w)))
			w = uint(extraWidth(mlCode))
			extras.Fill(w)
			mlValue := seqValue(mlCode, uint32(extras.Take(w)))
			offset := reps.decode(ofValue)
			if offset == 0 || mlValue == 0 {
				return fmt.Errorf("%w: zero offset or length in match", ErrCorrupt)
			}
			// Offsets may reference earlier blocks or the dictionary; the
			// frame-wide executor validates them against produced history.
			seq.Offset = offset
			seq.MatchLen = int(mlValue)
		}
		total += seq.LitLen + seq.MatchLen
		if i == numSeqs-1 {
			break
		}
		// Every state's bits fit in MaxTableLog, so one Fill per lane covers
		// the step, and a load serves several steps.
		ll.r.Fill(fse.MaxTableLog)
		of.r.Fill(fse.MaxTableLog)
		ml.r.Fill(fse.MaxTableLog)
		ll.state = uint32(el.Base) + uint32(ll.r.Take(uint(el.NbBits)))
		of.state = uint32(eo.Base) + uint32(of.r.Take(uint(eo.NbBits)))
		ml.state = uint32(em.Base) + uint32(ml.r.Take(uint(em.NbBits)))
	}
	for s := range lanes {
		if lanes[s].r.Err() != nil {
			return fmt.Errorf("%w: code stream %d underrun", ErrCorrupt, s)
		}
	}
	if extras.Err() != nil {
		return fmt.Errorf("%w: extras underrun", ErrCorrupt)
	}
	if total != block.RawSize {
		return fmt.Errorf("%w: sequences cover %d of %d bytes", ErrCorrupt, total, block.RawSize)
	}
	block.NumSeqs, block.Seqs = numSeqs, seqs
	return nil
}

// seqLane is one sequence-code stream being decoded: an FSE table walk, or a
// raw stream walked as one (rawCodeTable).
type seqLane struct {
	r       ibits.Reader
	entries []fse.DecEntry
	state   uint32
}

// rawCodeTable decodes a raw code stream as an FSE lane: state s emits code s
// and is followed by the next seqCodeBits bits, so the walk reads exactly the
// stream's fixed-width codes.
var rawCodeTable = func() []fse.DecEntry {
	t := make([]fse.DecEntry, 1<<seqCodeBits)
	for s := range t {
		t[s] = fse.DecEntry{Sym: uint8(s), NbBits: seqCodeBits}
	}
	return t
}()

// open reads stream s's header — mode, payload size, and an FSE stream's
// normalized counts — off the front of body, records its mode and table log
// in block, and reads the lane's first state. It returns the bytes the stream
// occupies.
func (l *seqLane) open(body []byte, block *BlockInfo, s int) (adv int, err error) {
	if len(body) < 1 {
		return 0, fmt.Errorf("%w: missing code stream", ErrCorrupt)
	}
	mode := int(body[0])
	pos := 1
	payload64, n, uerr := ibits.Uvarint(body[pos:])
	if uerr != nil || payload64 > uint64(len(body)) {
		return 0, fmt.Errorf("%w: code stream size", ErrCorrupt)
	}
	pos += n
	payload := int(payload64)
	if pos+payload > len(body) {
		return 0, fmt.Errorf("%w: code stream overruns body", ErrCorrupt)
	}
	l.r = *ibits.NewReader(body[pos : pos+payload])
	tableLog := 0
	switch mode {
	case seqFSE:
		var normBuf [256]int // the widest alphabet a norm can declare
		norm, tl, nerr := fse.AppendReadNorm(normBuf[:0], &l.r)
		if nerr != nil {
			return 0, fmt.Errorf("%w: fse norm: %v", ErrCorrupt, nerr)
		}
		var keyBuf [1 + 2*maxSeqCode]byte
		dec, derr := tables.fseTable(fse.AppendNormKey(keyBuf[:0], norm, tl), norm, tl)
		if derr != nil {
			return 0, fmt.Errorf("%w: fse table: %v", ErrCorrupt, derr)
		}
		l.entries, tableLog = dec.Entries(), dec.TableLog()
		l.r.Fill(uint(tableLog))
		l.state = uint32(l.r.Take(uint(tableLog)))
	case seqRaw:
		l.entries = rawCodeTable
		l.r.Fill(seqCodeBits)
		l.state = uint32(l.r.Take(seqCodeBits))
	default:
		return 0, fmt.Errorf("%w: code stream mode %d", ErrCorrupt, mode)
	}
	block.SeqModes[s], block.FSETableLogs[s] = mode, tableLog
	return pos + payload, nil
}
