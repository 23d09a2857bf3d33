// Package lzo implements an LZO-style codec: pure byte-oriented LZ77
// dictionary coding with no entropy stage, supporting compression levels
// that trade hash-table size and search effort for ratio (the one knob LZO
// exposes that Snappy does not, per the paper's taxonomy in §2.2).
//
// The format is deliberately simple: varint decoded length, then elements.
// Element first byte: low bit 0 = literal run (length varint follows,
// then the bytes), low bit 1 = copy (varint offset, varint length-4).
package lzo

import (
	"errors"
	"fmt"

	ibits "cdpu/internal/bits"
	"cdpu/internal/lz77"
)

// Window is the history window (LZO's offsets reach ~48 KiB; we use 64 KiB).
const Window = 64 << 10

// Level bounds.
const (
	MinLevel = 1
	MaxLevel = 9
)

// ErrCorrupt is returned for malformed input.
var ErrCorrupt = errors.New("lzo: corrupt input")

// MaxDecodedLen bounds the decoded size this implementation will allocate.
const MaxDecodedLen = 1 << 30

func lzConfig(level int) lz77.Config {
	cfg := lz77.Config{
		WindowSize:    Window,
		Associativity: 1,
		MinMatch:      4,
		Hash:          lz77.HashFibonacci,
	}
	switch {
	case level <= 3:
		cfg.TableEntries = 1 << 12
		cfg.SkipIncompressible = true
	case level <= 6:
		cfg.TableEntries = 1 << 14
		cfg.SkipIncompressible = true
	default:
		cfg.TableEntries = 1 << 15
		cfg.Associativity = 2
		cfg.Lazy = true
	}
	return cfg
}

// Encode compresses src at the given level (clamped to [MinLevel, MaxLevel]).
func Encode(src []byte, level int) []byte {
	if level < MinLevel {
		level = MinLevel
	}
	if level > MaxLevel {
		level = MaxLevel
	}
	m, err := lz77.NewMatcher(lzConfig(level))
	if err != nil {
		panic(err) // static configs are always valid
	}
	dst := ibits.AppendUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	seqs := m.Parse(src)
	pos := 0
	for _, s := range seqs {
		if s.LitLen > 0 {
			dst = ibits.AppendUvarint(dst, uint64(s.LitLen)<<1)
			dst = append(dst, src[pos:pos+s.LitLen]...)
			pos += s.LitLen
		}
		if s.MatchLen > 0 {
			dst = ibits.AppendUvarint(dst, uint64(s.Offset)<<1|1)
			dst = ibits.AppendUvarint(dst, uint64(s.MatchLen-4))
			pos += s.MatchLen
		}
	}
	return dst
}

// Decode decompresses src.
func Decode(src []byte) ([]byte, error) {
	n64, adv, err := ibits.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("%w: length header", ErrCorrupt)
	}
	if n64 > MaxDecodedLen {
		return nil, fmt.Errorf("%w: length %d", ErrCorrupt, n64)
	}
	n := int(n64)
	pos := adv
	// Reserve at most what a well-formed body could plausibly need: a forged
	// length header with a short body must not allocate gigabytes up front.
	// Highly compressible inputs (short body, huge n) just regrow on append.
	reserve := n
	if bound := (len(src) - pos) * 64; bound >= 0 && bound < reserve {
		reserve = bound
	}
	out := make([]byte, 0, reserve)
	for pos < len(src) {
		head, adv, err := ibits.Uvarint(src[pos:])
		if err != nil {
			return nil, fmt.Errorf("%w: element header", ErrCorrupt)
		}
		pos += adv
		if head&1 == 0 {
			// Subtraction-form bounds: pos+length could overflow int for a
			// forged near-2^63 run length.
			length := int(head >> 1)
			if length <= 0 || length > len(src)-pos || length > n-len(out) {
				return nil, fmt.Errorf("%w: literal run", ErrCorrupt)
			}
			out = append(out, src[pos:pos+length]...)
			pos += length
			continue
		}
		offset := int(head >> 1)
		l64, adv, err := ibits.Uvarint(src[pos:])
		if err != nil || l64 > MaxDecodedLen {
			return nil, fmt.Errorf("%w: copy length", ErrCorrupt)
		}
		pos += adv
		length := int(l64) + 4
		if offset <= 0 || offset > len(out) || offset > Window {
			return nil, fmt.Errorf("%w: copy offset %d", ErrCorrupt, offset)
		}
		if len(out)+length > n {
			return nil, fmt.Errorf("%w: copy overruns output", ErrCorrupt)
		}
		out = lz77.AppendCopy(out, offset, length)
	}
	if len(out) != n {
		return nil, fmt.Errorf("%w: decoded %d of %d bytes", ErrCorrupt, len(out), n)
	}
	return out, nil
}
