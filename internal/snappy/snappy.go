// Package snappy implements the Snappy block format from scratch,
// wire-compatible with the format description published in the
// github.com/google/snappy repository (format_description.txt). Snappy is the
// paper's representative "lightweight" fleet algorithm: LZ77-inspired
// dictionary coding, no entropy coding, fixed 64 KiB window, no compression
// levels (§2.2).
//
// The encoder's dictionary stage is the shared internal/lz77 engine, so the
// same knobs the CDPU generator exposes (hash-table entries, associativity,
// history window) apply to the software encoder, and the CDPU functional
// model produces byte-identical streams by invoking this package with the
// hardware's parameters.
package snappy

import (
	"errors"
	"fmt"
	"slices"

	"cdpu/internal/bits"
	"cdpu/internal/lz77"
)

// MaxBlockWindow is Snappy's fixed history window: copies never reach back
// more than 64 KiB (§3.6 of the paper; the format's offsets are ≤ 65535 by
// construction in practice).
const MaxBlockWindow = 64 << 10

// Tag values for the low two bits of each element's first byte.
const (
	tagLiteral = 0x00
	tagCopy1   = 0x01 // 1-byte offset copy: len 4..11, offset < 2048
	tagCopy2   = 0x02 // 2-byte offset copy: len 1..64, offset < 65536
	tagCopy4   = 0x03 // 4-byte offset copy: rarely emitted, fully decoded
)

// Errors returned by Decode.
var (
	ErrCorrupt = errors.New("snappy: corrupt input")
	// ErrSizeLimit is returned when a header's declared decoded length
	// exceeds the caller's limit — checked before any allocation, so a
	// forged header cannot OOM the decoder.
	ErrSizeLimit = errors.New("snappy: declared decoded length exceeds limit")
	// ErrTooLarge is ErrSizeLimit at the default limit, MaxDecodedLen;
	// errors.Is matches either sentinel.
	ErrTooLarge = fmt.Errorf("snappy: decoded length too large: %w", ErrSizeLimit)
)

// MaxDecodedLen bounds the decoded size this implementation will allocate
// when no explicit limit is given (DecodeLimited).
const MaxDecodedLen = 1 << 30

// maxExpansion bounds the output/input ratio of a valid Snappy body: a
// 3-byte copy-2 element emits at most 64 bytes, so a body emits at most 64/3
// bytes per byte. A header declaring more than maxExpansion times its body is
// rejected before anything is allocated, so a forged length cannot reserve
// more memory than the input could ever legitimately produce.
const maxExpansion = 64

// errForgedLength is DecodeLimited's verdict on such a header. It is built
// once, so the rejection allocates nothing.
var errForgedLength = fmt.Errorf("%w: declared length exceeds what the body can produce", ErrCorrupt)

// EncoderConfig exposes the dictionary-stage parameters. The zero value is
// replaced by Defaults().
type EncoderConfig struct {
	// TableEntries is the hash-table bucket count (default 1<<14, matching
	// both the reference implementation's max table and the paper's default
	// CDPU instance).
	TableEntries int
	// Associativity is candidate positions per bucket (default 1; the
	// reference implementation is direct-mapped).
	Associativity int
	// WindowSize bounds match offsets (default and maximum 64 KiB).
	WindowSize int
	// Hash selects the hash function (default Fibonacci).
	Hash lz77.HashFunc
	// SkipIncompressible enables the software stride heuristic (default
	// true, matching the reference encoder; the CDPU model sets it false —
	// the paper notes hardware gains nothing from skipping, §6.3).
	SkipIncompressible bool
}

// Defaults returns the reference-encoder-like configuration.
func Defaults() EncoderConfig {
	return EncoderConfig{
		TableEntries:       1 << 14,
		Associativity:      1,
		WindowSize:         MaxBlockWindow,
		Hash:               lz77.HashFibonacci,
		SkipIncompressible: true,
	}
}

func (c EncoderConfig) withDefaults() EncoderConfig {
	d := Defaults()
	if c.TableEntries == 0 {
		c.TableEntries = d.TableEntries
	}
	if c.Associativity == 0 {
		c.Associativity = d.Associativity
	}
	if c.WindowSize == 0 {
		c.WindowSize = d.WindowSize
	}
	return c
}

func (c EncoderConfig) lz77Config() lz77.Config {
	w := c.WindowSize
	if w > MaxBlockWindow {
		w = MaxBlockWindow
	}
	return lz77.Config{
		WindowSize:         w,
		TableEntries:       c.TableEntries,
		Associativity:      c.Associativity,
		MinMatch:           4,
		MaxMatch:           0, // long matches are split into 64-byte copies
		Hash:               c.Hash,
		Contents:           lz77.ContentsOffsetOnly,
		SkipIncompressible: c.SkipIncompressible,
	}
}

// Encoder compresses blocks under a fixed configuration, reusing its hash
// table across calls. Not safe for concurrent use.
type Encoder struct {
	matcher *lz77.Matcher

	// plan describes the block being emitted, element by element as the
	// emission loop writes them (AppendEncodeWithPlan).
	plan Plan
	// sizeOnly leaves literal payloads unwritten (SetSizeOnly).
	sizeOnly bool
}

// Plan is the element stream an Encoder records of the block it just
// produced: one Seq per element, a literal as {LitLen} and a copy as {Offset,
// MatchLen}, exactly what AppendDecodeSeqs parses back out of the block. A
// decompressor model charges per element, so a long match appears here as the
// copies it was split into. Seqs aliases encoder scratch: a Plan is valid only
// until the encoder's next Encode call.
type Plan struct {
	Seqs []lz77.Seq
}

// NewEncoder returns an Encoder for cfg (zero fields take defaults).
func NewEncoder(cfg EncoderConfig) (*Encoder, error) {
	cfg = cfg.withDefaults()
	m, err := lz77.NewMatcher(cfg.lz77Config())
	if err != nil {
		return nil, err
	}
	return &Encoder{matcher: m}, nil
}

// Stats returns dictionary-stage statistics for the most recent Encode.
func (e *Encoder) Stats() lz77.Stats { return e.matcher.Stats() }

// SetSizeOnly toggles size-only emission. When on, the encoder runs the
// dictionary stage and writes the length header and every element's tag bytes
// exactly as before, so the Plan and the block's length are those of a full
// encode, but a literal element's payload is left as whatever dst's backing
// array held instead of being copied from src.
//
// A size-only block is NOT decodable; like zstdlite's, it exists for replay
// pipelines that charge from the Plan and the block's length
// (core.Device.ExecWithPlan). Callers that may hand the block to a real
// decoder must keep size-only off.
func (e *Encoder) SetSizeOnly(on bool) { e.sizeOnly = on }

// Encode compresses src into the Snappy block format.
func (e *Encoder) Encode(src []byte) []byte {
	return e.AppendEncode(nil, src)
}

// AppendEncode compresses src, appending the Snappy block to dst — the
// zero-steady-state-allocation form for callers that replay many payloads
// through one buffer. It records no Plan.
func (e *Encoder) AppendEncode(dst, src []byte) []byte {
	return e.emit(dst, src, false)
}

// AppendEncodeWithPlan compresses src like AppendEncode and additionally
// returns the block's Plan, valid only until the next Encode call on this
// encoder.
func (e *Encoder) AppendEncodeWithPlan(dst, src []byte) ([]byte, *Plan) {
	return e.emit(dst, src, true), &e.plan
}

// emit is the one emission loop. With record set, each element goes into the
// Plan in the iteration that writes its bytes, from the same lengths: the
// split rule (copyStep) runs once and decides both.
func (e *Encoder) emit(dst, src []byte, record bool) []byte {
	e.matcher.ResetStats()
	dst = bits.AppendUvarint(dst, uint64(len(src)))
	els := e.plan.Seqs[:0]
	if len(src) > 0 {
		pos := 0
		for _, s := range e.matcher.Parse(src) {
			if s.LitLen > 0 {
				dst = appendLiteralTag(dst, s.LitLen)
				if e.sizeOnly {
					dst = slices.Grow(dst, s.LitLen)[:len(dst)+s.LitLen]
				} else {
					dst = append(dst, src[pos:pos+s.LitLen]...)
				}
				if record {
					els = append(els, lz77.Seq{LitLen: s.LitLen})
				}
				pos += s.LitLen
			}
			for rest := s.MatchLen; rest > 0; {
				n := copyStep(rest)
				dst = appendCopy(dst, s.Offset, n)
				if record {
					els = append(els, lz77.Seq{Offset: s.Offset, MatchLen: n})
				}
				rest -= n
			}
			pos += s.MatchLen
		}
	}
	e.plan.Seqs = els
	return dst
}

// Encode compresses src with the default configuration.
func Encode(src []byte) []byte {
	e, err := NewEncoder(EncoderConfig{})
	if err != nil {
		panic(err) // defaults are always valid
	}
	return e.Encode(src)
}

// appendLiteralTag emits the tag of a literal element of n bytes, which the
// payload follows. Runs longer than 60 bytes use the 1-4 extra length bytes
// the format defines.
func appendLiteralTag(dst []byte, n int) []byte {
	n--
	switch {
	case n < 60:
		return append(dst, byte(n)<<2|tagLiteral)
	case n < 1<<8:
		return append(dst, 60<<2|tagLiteral, byte(n))
	case n < 1<<16:
		return append(dst, 61<<2|tagLiteral, byte(n), byte(n>>8))
	case n < 1<<24:
		return append(dst, 62<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16))
	default:
		return append(dst, 63<<2|tagLiteral, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	}
}

// copyStep is the split rule: how many of a match's remaining length bytes
// its next copy element carries. A copy element holds at most 64 bytes, and a
// split never leaves a tail shorter than 4 bytes, which could not be a copy-1
// and would waste a copy-2: 65..67 split 60/rest.
func copyStep(length int) int {
	switch {
	case length <= 64:
		return length
	case length < 68:
		return 60
	default:
		return 64
	}
}

// appendCopy emits one copy element of n ≤ 64 bytes at offset. It prefers
// copy-1 when that fits (4..11 bytes, offset < 2048), then copy-2 (offset <
// 65536). A match at exactly the window bound (offset 65536) does not fit
// copy-2's 16 bits and uses copy-4.
func appendCopy(dst []byte, offset, n int) []byte {
	switch {
	case n >= 4 && n <= 11 && offset < 2048:
		return append(dst, byte(offset>>8)<<5|byte(n-4)<<2|tagCopy1, byte(offset))
	case offset < 1<<16:
		return append(dst, byte(n-1)<<2|tagCopy2, byte(offset), byte(offset>>8))
	default:
		return append(dst, byte(n-1)<<2|tagCopy4,
			byte(offset), byte(offset>>8), byte(offset>>16), byte(offset>>24))
	}
}

// Decode decompresses a Snappy block under the default MaxDecodedLen limit.
func Decode(src []byte) ([]byte, error) {
	return DecodeLimited(src, MaxDecodedLen)
}

// DecodeLimited decompresses a Snappy block, rejecting any stream whose
// declared decoded length exceeds maxLen (ErrSizeLimit) before allocating.
// maxLen <= 0 takes the default MaxDecodedLen.
func DecodeLimited(src []byte, maxLen int) ([]byte, error) {
	if maxLen <= 0 {
		maxLen = MaxDecodedLen
	}
	n, hdr, err := decodeHeaderLimited(src, maxLen)
	if err != nil {
		return nil, err
	}
	if uint64(n) > uint64(len(src)-hdr)*maxExpansion {
		return nil, errForgedLength
	}
	dst := make([]byte, n+lz77.Slack)
	if err := decodeBody(dst, src[hdr:]); err != nil {
		return nil, err
	}
	return dst[:n], nil
}

// AppendDecodeSeqs decodes a Snappy block into its LZ77 command stream
// without materializing output: the CDPU decompressor model replays the exact
// command sequence the hardware LZ77 decoder would see. It appends into
// caller-provided buffers (either may be nil), letting repeated decoders reuse
// their allocations; the returned slices alias the inputs' backing arrays
// when capacity allows.
func AppendDecodeSeqs(seqsBuf []lz77.Seq, literalsBuf []byte, src []byte) (seqs []lz77.Seq, literals []byte, decodedLen int, err error) {
	seqs, literals = seqsBuf, literalsBuf
	n, hdr, err := decodeHeader(src)
	if err != nil {
		return nil, nil, 0, err
	}
	body := src[hdr:]
	i := 0
	produced := 0
	for i < len(body) {
		litLen, offset, copyLen, adv, ok := element(body, i)
		if !ok {
			if litLen, offset, copyLen, adv, err = decodeElement(body, i); err != nil {
				return nil, nil, 0, err
			}
		}
		if litLen > 0 {
			if i+adv-litLen+litLen > len(body) {
				return nil, nil, 0, fmt.Errorf("%w: literal overruns input", ErrCorrupt)
			}
			literals = append(literals, body[i+adv-litLen:i+adv]...)
		}
		if offset > 0 && (offset > produced+litLen) {
			return nil, nil, 0, fmt.Errorf("%w: offset %d beyond produced %d", ErrCorrupt, offset, produced+litLen)
		}
		seqs = append(seqs, lz77.Seq{LitLen: litLen, Offset: offset, MatchLen: copyLen})
		produced += litLen + copyLen
		i += adv
	}
	if produced != n {
		return nil, nil, 0, fmt.Errorf("%w: produced %d, header says %d", ErrCorrupt, produced, n)
	}
	return seqs, literals, n, nil
}

func decodeHeader(src []byte) (decodedLen, headerLen int, err error) {
	return decodeHeaderLimited(src, MaxDecodedLen)
}

func decodeHeaderLimited(src []byte, maxLen int) (decodedLen, headerLen int, err error) {
	v, hdr, err := bits.Uvarint(src)
	if err != nil {
		return 0, 0, fmt.Errorf("%w: bad length header", ErrCorrupt)
	}
	if v > uint64(maxLen) {
		if maxLen == MaxDecodedLen {
			return 0, 0, ErrTooLarge
		}
		return 0, 0, fmt.Errorf("%w: %d > %d", ErrSizeLimit, v, maxLen)
	}
	return int(v), hdr, nil
}

// elemCode is what an element's tag alone says, for the tags element decodes:
// a literal of at most 60 bytes, a copy-1 and a copy-2. adv is 0 for the rest.
// A copy's offset is offHi | the little-endian 16 bits after the tag, masked
// by offMask.
type elemCode struct {
	litLen, copyLen, adv uint8
	offHi, offMask       uint16
}

var elemCodes = func() (t [256]elemCode) {
	for tag := range t {
		switch tag & 0x03 {
		case tagLiteral:
			if n := tag >> 2; n < 60 {
				t[tag] = elemCode{litLen: uint8(n + 1), adv: uint8(n + 2)}
			}
		case tagCopy1:
			t[tag] = elemCode{copyLen: uint8(tag>>2&0x7 + 4), adv: 2, offHi: uint16(tag>>5) << 8, offMask: 0xff}
		case tagCopy2:
			t[tag] = elemCode{copyLen: uint8(tag>>2 + 1), adv: 3, offMask: 0xffff}
		}
	}
	return t
}()

// element is decodeElement's inlinable fast path: the element at body[i] when
// it is a literal of at most 60 bytes, a copy-1 or a copy-2, and at least
// three body bytes remain. Otherwise ok is false and the caller asks
// decodeElement, which decodes the rest and reports every error.
func element(body []byte, i int) (litLen, offset, copyLen, adv int, ok bool) {
	if i+2 >= len(body) {
		return
	}
	c := &elemCodes[body[i]]
	w := int(body[i+1]) | int(body[i+2])<<8
	adv = int(c.adv)
	return int(c.litLen), int(c.offHi) | w&int(c.offMask), int(c.copyLen), adv, adv != 0 && adv <= len(body)-i
}

// decodeElement parses one element at body[i], returning the literal length
// (with the literal bytes being the last litLen bytes of the element), copy
// offset/length (0 if none), and total bytes consumed.
func decodeElement(body []byte, i int) (litLen, offset, copyLen, adv int, err error) {
	tag := body[i]
	switch tag & 0x03 {
	case tagLiteral:
		n := int(tag >> 2)
		hdr := 1
		switch {
		case n < 60:
			n++
		case n == 60:
			if i+1 >= len(body) {
				return 0, 0, 0, 0, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
			}
			n = int(body[i+1]) + 1
			hdr = 2
		case n == 61:
			if i+2 >= len(body) {
				return 0, 0, 0, 0, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
			}
			n = int(body[i+1]) | int(body[i+2])<<8
			n++
			hdr = 3
		case n == 62:
			if i+3 >= len(body) {
				return 0, 0, 0, 0, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
			}
			n = int(body[i+1]) | int(body[i+2])<<8 | int(body[i+3])<<16
			n++
			hdr = 4
		default: // 63
			if i+4 >= len(body) {
				return 0, 0, 0, 0, fmt.Errorf("%w: truncated literal length", ErrCorrupt)
			}
			n = int(body[i+1]) | int(body[i+2])<<8 | int(body[i+3])<<16 | int(body[i+4])<<24
			n++
			hdr = 5
		}
		if n < 0 || i+hdr+n > len(body) {
			return 0, 0, 0, 0, fmt.Errorf("%w: literal overruns input", ErrCorrupt)
		}
		return n, 0, 0, hdr + n, nil
	case tagCopy1:
		if i+1 >= len(body) {
			return 0, 0, 0, 0, fmt.Errorf("%w: truncated copy-1", ErrCorrupt)
		}
		copyLen = int(tag>>2&0x7) + 4
		offset = int(tag>>5)<<8 | int(body[i+1])
		return 0, offset, copyLen, 2, nil
	case tagCopy2:
		if i+2 >= len(body) {
			return 0, 0, 0, 0, fmt.Errorf("%w: truncated copy-2", ErrCorrupt)
		}
		copyLen = int(tag>>2) + 1
		offset = int(body[i+1]) | int(body[i+2])<<8
		return 0, offset, copyLen, 3, nil
	default: // tagCopy4
		if i+4 >= len(body) {
			return 0, 0, 0, 0, fmt.Errorf("%w: truncated copy-4", ErrCorrupt)
		}
		copyLen = int(tag>>2) + 1
		offset = int(body[i+1]) | int(body[i+2])<<8 | int(body[i+3])<<16 | int(body[i+4])<<24
		return 0, offset, copyLen, 5, nil
	}
}

// decodeBody decodes body into dst, which holds the declared length plus
// lz77.Slack bytes, writing by index: a short literal run or copy is one
// 16-byte move (lz77.CopyMatch). The body must produce exactly the declared
// length.
func decodeBody(dst, body []byte) error {
	end := len(dst) - lz77.Slack
	d := 0
	for i := 0; i < len(body); {
		litLen, offset, copyLen, adv, ok := element(body, i)
		if !ok {
			var err error
			if litLen, offset, copyLen, adv, err = decodeElement(body, i); err != nil {
				return err
			}
		}
		if litLen > 0 {
			if litLen > end-d {
				return fmt.Errorf("%w: output exceeds header length", ErrCorrupt)
			}
			if lit := i + adv - litLen; litLen <= 16 && len(body)-lit >= 16 {
				*(*[16]byte)(dst[d:]) = *(*[16]byte)(body[lit:])
			} else {
				copy(dst[d:d+litLen], body[lit:i+adv])
			}
			d += litLen
		} else {
			if offset <= 0 || offset > d {
				return fmt.Errorf("%w: copy offset %d with %d bytes produced", ErrCorrupt, offset, d)
			}
			if copyLen > end-d {
				return fmt.Errorf("%w: output exceeds header length", ErrCorrupt)
			}
			if offset >= 16 && copyLen <= 16 {
				*(*[16]byte)(dst[d:]) = *(*[16]byte)(dst[d-offset:])
			} else {
				lz77.CopyMatch(dst, d, offset, copyLen)
			}
			d += copyLen
		}
		i += adv
	}
	if d != end {
		return fmt.Errorf("%w: decoded %d bytes, header says %d", ErrCorrupt, d, end)
	}
	return nil
}
