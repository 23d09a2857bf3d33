// Package gipfeli implements a Gipfeli-style lightweight codec: LZ77
// dictionary coding (64 KiB fixed window, no compression levels) plus the
// simple static entropy coding that distinguishes Gipfeli from Snappy
// (Lenhardt & Alakuijala, DCC'12). Literal bytes are coded in three static
// classes by block-local frequency rank: the 32 most frequent bytes get
// 6-bit codes, the next 64 get 8-bit codes, and the rest 10-bit codes.
//
// In the paper's taxonomy (§2.2) Gipfeli is a lightweight fleet algorithm
// with a small cycle share (≈0.5%); this package exists so the synthetic
// fleet model can run every algorithm class it reports.
package gipfeli

import (
	"errors"
	"fmt"

	ibits "cdpu/internal/bits"
	"cdpu/internal/lz77"
)

// Window is the fixed history window, matching Snappy's.
const Window = 64 << 10

// ErrCorrupt is returned for malformed input.
var ErrCorrupt = errors.New("gipfeli: corrupt input")

// MaxDecodedLen bounds the decoded size this implementation will allocate.
const MaxDecodedLen = 1 << 30

// Literal class code prefixes (2 bits) and payload widths.
const (
	class6  = 0 // rank 0..31: prefix 0b00 + 5 bits  (7 bits total)
	class8  = 1 // rank 32..95: prefix 0b01 + 6 bits (8 bits total)
	class10 = 2 // others: prefix 0b10 + 8 raw bits  (10 bits total)
	// prefix 0b11 announces a copy element.
	opCopy = 3
)

func lzConfig() lz77.Config {
	return lz77.Config{
		WindowSize:         Window,
		TableEntries:       1 << 14,
		Associativity:      1,
		MinMatch:           4,
		MaxMatch:           1 << 16,
		Hash:               lz77.HashFibonacci,
		SkipIncompressible: true,
	}
}

// Encode compresses src. The output layout is: varint decoded length, 96
// ranking bytes (the class-6 and class-8 alphabets), then the bitstream.
func Encode(src []byte) []byte {
	dst := ibits.AppendUvarint(nil, uint64(len(src)))
	if len(src) == 0 {
		return dst
	}
	m, err := lz77.NewMatcher(lzConfig())
	if err != nil {
		panic(err) // static config is always valid
	}
	seqs := m.Parse(src)

	// Rank bytes by frequency over the literals.
	var hist [256]int
	pos := 0
	for _, s := range seqs {
		for _, b := range src[pos : pos+s.LitLen] {
			hist[b]++
		}
		pos += s.LitLen + s.MatchLen
	}
	rank := rankBytes(hist)
	var classOf [256]uint8
	var codeOf [256]uint8
	for r, b := range rank {
		switch {
		case r < 32:
			classOf[b], codeOf[b] = class6, uint8(r)
		case r < 96:
			classOf[b], codeOf[b] = class8, uint8(r-32)
		default:
			classOf[b] = class10
		}
	}
	dst = append(dst, rank[:96]...)

	var w ibits.Writer
	writeLiteral := func(b byte) {
		switch classOf[b] {
		case class6:
			w.WriteBits(uint64(class6), 2)
			w.WriteBits(uint64(codeOf[b]), 5)
		case class8:
			w.WriteBits(uint64(class8), 2)
			w.WriteBits(uint64(codeOf[b]), 6)
		default:
			w.WriteBits(uint64(class10), 2)
			w.WriteBits(uint64(b), 8)
		}
	}
	pos = 0
	for _, s := range seqs {
		for _, b := range src[pos : pos+s.LitLen] {
			writeLiteral(b)
		}
		pos += s.LitLen
		if s.MatchLen > 0 && s.Offset >= 1<<16 {
			// A match at exactly the window bound does not fit the 16-bit
			// offset fields; emit its bytes as literals. (Rare: only
			// offset == 65536 is both window-legal and unrepresentable.)
			for _, b := range src[pos : pos+s.MatchLen] {
				writeLiteral(b)
			}
			pos += s.MatchLen
		} else if s.MatchLen > 0 {
			w.WriteBits(uint64(opCopy), 2)
			// Three copy classes, as in Gipfeli's backward-reference coding:
			// short/near copies get compact encodings.
			switch {
			case s.Offset < 1<<10 && s.MatchLen < 4+1<<4:
				w.WriteBits(0, 2)
				w.WriteBits(uint64(s.Offset), 10)
				w.WriteBits(uint64(s.MatchLen-4), 4)
			case s.MatchLen < 4+1<<6:
				w.WriteBits(1, 2)
				w.WriteBits(uint64(s.Offset), 16)
				w.WriteBits(uint64(s.MatchLen-4), 6)
			default:
				w.WriteBits(2, 2)
				w.WriteBits(uint64(s.Offset), 16)
				w.WriteBits(uint64(s.MatchLen-4), 16)
			}
			pos += s.MatchLen
		}
	}
	return append(dst, w.Bytes()...)
}

// rankBytes returns all 256 byte values ordered by descending frequency
// (ties by value).
func rankBytes(hist [256]int) [256]byte {
	var rank [256]byte
	for i := range rank {
		rank[i] = byte(i)
	}
	// Simple stable selection by count (256 elements; cost immaterial).
	for i := 0; i < 256; i++ {
		best := i
		for j := i + 1; j < 256; j++ {
			if hist[rank[j]] > hist[rank[best]] {
				best = j
			}
		}
		rank[i], rank[best] = rank[best], rank[i]
	}
	return rank
}

// Decode decompresses src.
func Decode(src []byte) ([]byte, error) {
	n64, hdr, err := ibits.Uvarint(src)
	if err != nil {
		return nil, fmt.Errorf("%w: length header", ErrCorrupt)
	}
	if n64 > MaxDecodedLen {
		return nil, fmt.Errorf("%w: length %d", ErrCorrupt, n64)
	}
	n := int(n64)
	if n == 0 {
		if hdr != len(src) {
			return nil, fmt.Errorf("%w: trailing bytes", ErrCorrupt)
		}
		return nil, nil
	}
	if hdr+96 > len(src) {
		return nil, fmt.Errorf("%w: missing alphabet", ErrCorrupt)
	}
	alphabet := src[hdr : hdr+96]
	r := ibits.NewReader(src[hdr+96:])
	// Cap the reservation by what the bitstream could plausibly produce, so
	// a forged length header cannot allocate gigabytes up front; compressible
	// inputs regrow on append.
	reserve := n
	if bound := (len(src) - hdr - 96) * 64; bound >= 0 && bound < reserve {
		reserve = bound
	}
	out := make([]byte, 0, reserve)
	for len(out) < n {
		switch r.ReadBits(2) {
		case class6:
			out = append(out, alphabet[r.ReadBits(5)])
		case class8:
			out = append(out, alphabet[32+r.ReadBits(6)])
		case class10:
			out = append(out, byte(r.ReadBits(8)))
		case opCopy:
			var offset, length int
			switch r.ReadBits(2) {
			case 0:
				offset = int(r.ReadBits(10))
				length = int(r.ReadBits(4)) + 4
			case 1:
				offset = int(r.ReadBits(16))
				length = int(r.ReadBits(6)) + 4
			case 2:
				offset = int(r.ReadBits(16))
				length = int(r.ReadBits(16)) + 4
			default:
				return nil, fmt.Errorf("%w: copy class", ErrCorrupt)
			}
			if r.Err() != nil {
				return nil, fmt.Errorf("%w: truncated copy", ErrCorrupt)
			}
			if offset <= 0 || offset > len(out) {
				return nil, fmt.Errorf("%w: copy offset %d at %d", ErrCorrupt, offset, len(out))
			}
			if len(out)+length > n {
				return nil, fmt.Errorf("%w: copy overruns output", ErrCorrupt)
			}
			out = lz77.AppendCopy(out, offset, length)
		}
		if r.Err() != nil {
			return nil, fmt.Errorf("%w: truncated stream", ErrCorrupt)
		}
	}
	// Only the final byte's zero padding may remain: whole trailing bytes
	// mean a corrupted (or maliciously extended) stream.
	if r.BitsRemaining() >= 8 {
		return nil, fmt.Errorf("%w: %d trailing bits", ErrCorrupt, r.BitsRemaining())
	}
	return out, nil
}
