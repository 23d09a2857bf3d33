// Package zstdlite implements this repository's heavyweight compression
// format. It mirrors Zstandard's architecture stage-for-stage — LZ77
// dictionary coding, a Huffman-coded literals section and FSE-coded
// (literal-length, offset, match-length) sequence streams — using its own
// byte layout. The paper's ZStd CDPU (Figures 9 and 10) is composed of
// exactly these stages; implementing the same pipeline with a self-described
// wire format preserves every behaviour the CDPU design study depends on
// (entropy table builds, speculative Huffman decode, FSE accuracy, window
// sizing, reuse of the Snappy LZ77 encoder block) without chasing bit-exact
// RFC 8878 compatibility. DESIGN.md records this substitution.
package zstdlite

import (
	"bytes"
	"errors"
	"math/bits"
)

// Frame constants.
var frameMagic = [4]byte{'Z', 'S', 'L', '1'}

// IsFrame reports whether src opens with the zstdlite frame magic: how a
// caller holding bytes of unknown origin tells this family's frames from a
// Snappy block, which opens with a varint length.
func IsFrame(src []byte) bool { return bytes.HasPrefix(src, frameMagic[:]) }

// Header flag bits carried in the window byte (low 5 bits hold windowLog,
// which is at most 27).
const (
	flagChecksum    = 0x20 // a 4-byte content checksum trails the last block
	flagUnknownSize = 0x40 // content size not recorded (streaming producer)
	flagDictionary  = 0x80 // frame requires a preset dictionary; ID byte follows
)

// checksumState is an incremental FNV-1a over decompressed bytes, folded to
// 32 bits at the end (Zstandard uses xxhash64; any fast non-cryptographic
// hash serves the role of catching silent corruption).
type checksumState uint64

// newChecksum returns the initial state (the FNV-1a offset basis).
func newChecksum() checksumState { return 14695981039346656037 }

// update absorbs b.
func (h *checksumState) update(b []byte) {
	const prime64 = 1099511628211
	s := uint64(*h)
	for _, c := range b {
		s ^= uint64(c)
		s *= prime64
	}
	*h = checksumState(s)
}

// sum32 folds the state to the 4-byte frame checksum.
func (h checksumState) sum32() uint32 {
	return uint32(h) ^ uint32(uint64(h)>>32)
}

// contentChecksum hashes a whole buffer.
func contentChecksum(b []byte) uint32 {
	h := newChecksum()
	h.update(b)
	return h.sum32()
}

// DictID returns the 1-byte identifier stored in dictionary-flagged frames:
// a cheap fold of the dictionary bytes, enough to catch mismatched
// dictionaries at decode time.
func DictID(dict []byte) byte {
	var id byte = 0x5a
	for i, b := range dict {
		id = id*31 + b + byte(i)
	}
	return id
}

// Window-log bounds. ZStd's fleet usage spans 2^10..2^27 (paper Figure 5).
const (
	MinWindowLog     = 10
	MaxWindowLog     = 27
	DefaultWindowLog = 20
)

// MaxBlockSize caps the uncompressed bytes per block, as in ZStd (128 KiB).
const MaxBlockSize = 128 << 10

// Block types.
const (
	blockRaw        = 0
	blockRLE        = 1
	blockCompressed = 2
)

// Literals-section modes.
const (
	litRaw     = 0
	litHuffman = 1
)

// Sequence-stream modes.
const (
	seqFSE = 0
	seqRaw = 1 // fixed 6-bit codes; used for degenerate distributions
)

// seqCodeBits is the width of a raw-coded sequence code.
const seqCodeBits = 6

// Repeat-offset coding, as in Zstandard: offset values 1..numRepCodes are
// references into the decoder's recent-offset history (most recent first),
// and literal offsets are shifted up by numRepCodes. Structured data repeats
// the same few match distances constantly, so rep-codes shrink the offset
// stream's entropy.
const numRepCodes = 3

// repHistory tracks the recent-offset state shared by encoder and decoder.
type repHistory [numRepCodes]int

// newRepHistory returns the initial state (as zstd, primed with small
// offsets so early rep-codes are well-defined).
func newRepHistory() repHistory {
	return repHistory{1, 4, 8}
}

// encode maps an absolute offset to its wire value and updates the history.
func (r *repHistory) encode(offset int) uint32 {
	for k, rep := range r {
		if offset == rep {
			r.promote(k)
			return uint32(k + 1)
		}
	}
	r.push(offset)
	return uint32(offset + numRepCodes)
}

// decode maps a wire value back to an absolute offset, updating the history.
// It returns 0 for invalid values.
func (r *repHistory) decode(v uint32) int {
	if v == 0 {
		return 0
	}
	if v <= numRepCodes {
		k := int(v - 1)
		off := r[k]
		r.promote(k)
		return off
	}
	off := int(v) - numRepCodes
	r.push(off)
	return off
}

// promote moves entry k to the front.
func (r *repHistory) promote(k int) {
	off := r[k]
	copy(r[1:], r[:k])
	r[0] = off
}

// push inserts a new most-recent offset.
func (r *repHistory) push(offset int) {
	copy(r[1:], r[:numRepCodes-1])
	r[0] = offset
}

// maxSeqCode bounds the code alphabet: value v maps to code bits.Len32(v),
// so 32-bit values need codes 0..32.
const maxSeqCode = 33

// Errors.
var (
	ErrMagic   = errors.New("zstdlite: bad frame magic")
	ErrCorrupt = errors.New("zstdlite: corrupt frame")
	ErrWindow  = errors.New("zstdlite: window log out of range")
	// ErrSizeLimit is returned when a frame's blocks sum to more output than
	// the caller's limit allows (MaxDecodedLen when none is given) — checked
	// before the output is reserved, so a forged header cannot OOM the decoder.
	ErrSizeLimit  = errors.New("zstdlite: decoded length exceeds limit")
	ErrBadParams  = errors.New("zstdlite: invalid parameters")
	ErrDictionary = errors.New("zstdlite: dictionary missing or mismatched")
)

// MaxDecodedLen bounds the decoded size this implementation will allocate
// when no explicit limit is given (DecodeLimited).
const MaxDecodedLen = 1 << 30

// seqCode maps a non-negative value to its (code, extraBits, extraWidth)
// triple: code = bit length of v, extra = v minus the leading power of two.
// Codes 0 and 1 carry no extra bits.
func seqCode(v uint32) (code uint8, extra uint32, width uint8) {
	c := uint8(bits.Len32(v))
	if c < 2 {
		return c, 0, 0
	}
	return c, v - 1<<(c-1), c - 1
}

// seqValue inverts seqCode given the code and extra bits.
func seqValue(code uint8, extra uint32) uint32 {
	if code < 2 {
		return uint32(code)
	}
	return 1<<(code-1) + extra
}

// extraWidth returns the number of extra bits implied by a code.
func extraWidth(code uint8) uint8 {
	if code < 2 {
		return 0
	}
	return code - 1
}
