package zstdlite

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	ibits "cdpu/internal/bits"
	"cdpu/internal/corpus"
	"cdpu/internal/fse"
	"cdpu/internal/huffman"
	"cdpu/internal/lz77"
)

// This file is the differential tests' reference parser for compressed block
// bodies: the entropy stage as it stood before the three sequence-code streams
// were decoded in one pass. It decodes each code stream in full into its own
// slice, one bits.Reader call per field and one FSE table walk per stream,
// then walks the extras. The frame, block-header and trailer parsers and the
// Huffman literal decoder are the production ones (huffman_test.go holds the
// decoder to its own per-symbol reference). A FrameInfo equal to this one's
// proves the fused lane loop in decode.go changed how fast the body is parsed
// and nothing it yields. Beside it is the block executor as it stood before
// blocks were replayed into an owned buffer (refMaterialize): equal bytes and
// equal verdicts prove the same of lz77.Replay under materialize.

// refInspect is Inspect with every compressed body parsed by refParseBody.
func refInspect(src []byte) (*FrameInfo, error) {
	info, pos, err := parseFrameHeader(src)
	if err != nil {
		return nil, err
	}
	total := 0
	for last := false; !last; {
		info.Blocks = append(info.Blocks, BlockInfo{})
		b := &info.Blocks[len(info.Blocks)-1]
		var n int
		n, last, err = parseBlock(src[pos:], b)
		// parseBlock reached the body exactly when it returns the block's end
		// inside src; a header failure returns 0 or a length past it.
		if b.Type == blockCompressed && n > 0 && n <= len(src)-pos {
			body := src[pos+n-b.CompSize : pos+n]
			*b = BlockInfo{Type: b.Type, RawSize: b.RawSize, CompSize: b.CompSize}
			err = refParseBody(body, b)
		}
		if err != nil {
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

// refParseBody is parseCompressedBody before the lane loop.
func refParseBody(body []byte, block *BlockInfo) error {
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
	var codeStreams [3][]uint8
	for s := 0; s < 3; s++ {
		codes, mode, tableLog, adv, err := refParseCodeStream(body[pos:], numSeqs)
		if err != nil {
			return err
		}
		block.SeqModes[s] = mode
		block.FSETableLogs[s] = tableLog
		codeStreams[s] = codes
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
	reps := newRepHistory()
	for i := 0; i < numSeqs; i++ {
		ll := seqValue(codeStreams[0][i], uint32(extras.ReadBits(uint(extraWidth(codeStreams[0][i])))))
		seqs[i].LitLen = int(ll)
		ofCode, mlCode := codeStreams[1][i], codeStreams[2][i]
		if ofCode == 0 && mlCode == 0 {
			// terminal literal run
		} else {
			ofValue := seqValue(ofCode, uint32(extras.ReadBits(uint(extraWidth(ofCode)))))
			ml := seqValue(mlCode, uint32(extras.ReadBits(uint(extraWidth(mlCode)))))
			of := uint32(reps.decode(ofValue))
			if of == 0 || ml == 0 {
				return fmt.Errorf("%w: zero offset or length in match", ErrCorrupt)
			}
			seqs[i].Offset = int(of)
			seqs[i].MatchLen = int(ml)
		}
		total += seqs[i].LitLen + seqs[i].MatchLen
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

// refParseCodeStream decodes one sequence-code stream in full.
func refParseCodeStream(body []byte, numSeqs int) (codes []uint8, mode, tableLog, adv int, err error) {
	if len(body) < 1 {
		return nil, 0, 0, 0, fmt.Errorf("%w: missing code stream", ErrCorrupt)
	}
	mode = int(body[0])
	pos := 1
	payload64, n, uerr := ibits.Uvarint(body[pos:])
	if uerr != nil || payload64 > uint64(len(body)) {
		return nil, 0, 0, 0, fmt.Errorf("%w: code stream size", ErrCorrupt)
	}
	pos += n
	payload := int(payload64)
	if pos+payload > len(body) {
		return nil, 0, 0, 0, fmt.Errorf("%w: code stream overruns body", ErrCorrupt)
	}
	r := ibits.NewReader(body[pos : pos+payload])
	switch mode {
	case seqFSE:
		norm, tl, nerr := fse.AppendReadNorm(nil, r)
		if nerr != nil {
			return nil, 0, 0, 0, fmt.Errorf("%w: fse norm: %v", ErrCorrupt, nerr)
		}
		dec, derr := fse.NewDecTable(norm, tl)
		if derr != nil {
			return nil, 0, 0, 0, fmt.Errorf("%w: fse table: %v", ErrCorrupt, derr)
		}
		codes, err = refFSEDecode(dec, r, make([]uint8, 0, numSeqs), numSeqs)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("%w: fse codes: %v", ErrCorrupt, err)
		}
		tableLog = tl
	case seqRaw:
		codes = make([]uint8, numSeqs)
		for i := range codes {
			codes[i] = uint8(r.ReadBits(seqCodeBits))
		}
		if r.Err() != nil {
			return nil, 0, 0, 0, fmt.Errorf("%w: raw codes underrun", ErrCorrupt)
		}
	default:
		return nil, 0, 0, 0, fmt.Errorf("%w: code stream mode %d", ErrCorrupt, mode)
	}
	for _, c := range codes {
		if int(c) >= maxSeqCode {
			return nil, 0, 0, 0, fmt.Errorf("%w: sequence code %d", ErrCorrupt, c)
		}
	}
	return codes, mode, tableLog, pos + payload, nil
}

// refFSEDecode is the FSE table walk one symbol at a time, checking the
// reader after every field.
func refFSEDecode(t *fse.DecTable, r *ibits.Reader, dst []uint8, n int) ([]uint8, error) {
	entries := t.Entries()
	state := uint32(r.ReadBits(uint(t.TableLog())))
	if r.Err() != nil {
		return dst, fmt.Errorf("%w: %v", fse.ErrBadStream, r.Err())
	}
	for i := 0; i < n; i++ {
		e := entries[state]
		dst = append(dst, e.Sym)
		if i == n-1 {
			break
		}
		state = uint32(e.Base) + uint32(r.ReadBits(uint(e.NbBits)))
		if r.Err() != nil {
			return dst, fmt.Errorf("%w: %v", fse.ErrBadStream, r.Err())
		}
		if int(state) >= len(entries) {
			return dst, fse.ErrBadStream
		}
	}
	return dst, nil
}

// refMaterialize is materialize as it stood before blocks were replayed into
// an owned buffer: every block appended to the output, a compressed one by
// lz77.AppendReconstruct and an RLE one by lz77.AppendCopy.
func refMaterialize(info *FrameInfo, dict []byte, maxLen int) ([]byte, error) {
	hist, err := info.history(dict)
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range info.Blocks {
		total += info.Blocks[i].RawSize
	}
	if err := info.checkSize(total, maxLen, true); err != nil {
		return nil, err
	}
	out := append(make([]byte, 0, len(hist)+total), hist...)
	for i := range info.Blocks {
		if out, err = refAppendTo(&info.Blocks[i], out, 1<<info.WindowLog); err != nil {
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

// refAppendTo is BlockInfo.appendTo by appending.
func refAppendTo(b *BlockInfo, out []byte, window int) ([]byte, error) {
	before := len(out)
	switch b.Type {
	case blockRaw:
		out = append(out, b.Literals...)
	case blockRLE:
		if b.RawSize > 0 {
			out = lz77.AppendCopy(append(out, b.RLEByte), 1, b.RawSize-1)
		}
	case blockCompressed:
		var err error
		if out, err = lz77.AppendReconstruct(out, b.Seqs, b.Literals, window); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if len(out)-before != b.RawSize {
		return nil, fmt.Errorf("%w: block produced %d of %d bytes", ErrCorrupt, len(out)-before, b.RawSize)
	}
	return out, nil
}

// refDict is the preset dictionary of refSeedFrames' dictionary frames.
func refDict() []byte { return corpus.Generate(corpus.Log, 8<<10, 60) }

// sameErr fails t unless err and werr are both nil or both errors of the same
// sentinels.
func sameErr(t *testing.T, what string, err, werr error) {
	t.Helper()
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s err %v, reference err %v", what, err, werr)
	}
	for _, s := range []error{ErrCorrupt, ErrMagic, ErrWindow, ErrSizeLimit, ErrDictionary} {
		if errors.Is(err, s) != errors.Is(werr, s) {
			t.Fatalf("%s err %v, reference err %v", what, err, werr)
		}
	}
}

// sameInspect fails t unless Inspect and refInspect agree on src — both fail,
// on the same sentinel errors, or both return equal FrameInfos — and unless
// DecodeWithDict and the reference parse executed by refMaterialize, given
// refDict, agree likewise: the same sentinels or the same bytes.
func sameInspect(t *testing.T, name string, src []byte) {
	t.Helper()
	got, err := Inspect(src)
	want, werr := refInspect(src)
	sameErr(t, name+": Inspect", err, werr)
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Inspect and the reference parse differ", name)
	}
	dict := refDict()
	out, err := DecodeWithDict(src, dict)
	wantOut, werr := refMaterialize(want, dict, MaxDecodedLen)
	sameErr(t, name+": DecodeWithDict", err, werr)
	if !bytes.Equal(out, wantOut) {
		t.Fatalf("%s: DecodeWithDict and the reference materialize differ", name)
	}
}

// refSeedFrames returns frames of every planPayloads payload under every
// parameter mix TestParamsMatrixRoundTrip runs, with the name of each.
func refSeedFrames(t testing.TB) (names []string, frames [][]byte) {
	t.Helper()
	payloads := planPayloads(t)
	keys := make([]string, 0, len(payloads))
	for k := range payloads {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dict := refDict()
	for _, level := range []int{-3, 3, 12} {
		for _, wlog := range []int{12, 17, 22} {
			for _, noFSE := range []bool{false, true} {
				for _, withDict := range []bool{false, true} {
					p := Params{Level: level, WindowLog: wlog, DisableFSE: noFSE}
					if withDict {
						p.Dict = dict
					}
					e, err := NewEncoder(p)
					if err != nil {
						t.Fatalf("%+v: %v", p, err)
					}
					for _, k := range keys {
						names = append(names, fmt.Sprintf("%s/L%d/W%d/nofse=%v/dict=%v", k, level, wlog, noFSE, withDict))
						frames = append(frames, e.Encode(payloads[k]))
					}
				}
			}
		}
	}
	return names, frames
}

// readCorpusSeeds returns the []byte values of a checked-in fuzz corpus
// directory (files of the form "go test fuzz v1\n[]byte(\"...\")\n").
func readCorpusSeeds(t testing.TB, dir string) [][]byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || !strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-value []byte corpus file", f)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out = append(out, []byte(s))
	}
	return out
}

// TestInspectMatchesReference holds Inspect to the reference parse, and
// Decode to the reference materialize, on the fuzz seeds: valid frames at
// every parameter mix, and the checked-in FuzzDecompress corpus.
func TestInspectMatchesReference(t *testing.T) {
	names, frames := refSeedFrames(t)
	for i, f := range frames {
		sameInspect(t, names[i], f)
	}
	for i, f := range readCorpusSeeds(t, filepath.Join("testdata", "fuzz", "FuzzDecompress")) {
		sameInspect(t, fmt.Sprintf("corpus seed %d", i), f)
	}
}

// FuzzInspectMatchesReference is TestInspectMatchesReference on arbitrary
// bytes: the fused lane loop must accept exactly what the reference accepts,
// reject the rest as the reference does, and parse every accepted frame to
// an equal FrameInfo, which Decode must execute to the reference's bytes or
// verdict. Seed frames over 2 KiB are left to the test: the
// fuzzer minimizes each new input it finds byte by byte, which on a frame of
// tens of KiB stalls it for most of a short run.
func FuzzInspectMatchesReference(f *testing.F) {
	_, frames := refSeedFrames(f)
	for _, fr := range frames {
		if len(fr) <= 2<<10 {
			f.Add(fr)
		}
	}
	for _, s := range readCorpusSeeds(f, filepath.Join("testdata", "fuzz", "FuzzDecompress")) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sameInspect(t, "fuzzed input", data)
	})
}
