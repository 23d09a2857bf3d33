package bits

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrOverread is returned when a Reader is asked for more bits than remain.
var ErrOverread = errors.New("bits: read past end of stream")

// ErrBitCount is recorded when a Reader or Writer is asked to move more bits
// than the 56-bit accumulator guarantee allows.
var ErrBitCount = errors.New("bits: bit count out of range")

// Reader consumes bits LSB-first from a byte slice produced by Writer.
type Reader struct {
	buf  []byte
	pos  int    // next byte index in buf
	acc  uint64 // buffered bits, LSB-aligned
	nacc uint   // number of valid bits in acc
	err  error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// fill ensures at least n (≤ 56) bits are buffered if the stream has them.
// Away from the end of the stream a single 64-bit load refills as many whole
// bytes as the accumulator holds (≥ 7 when nacc < 56, so one pass always
// satisfies n); the stream tail falls back to byte-at-a-time refill.
func (r *Reader) fill(n uint) {
	if r.nacc >= n {
		return
	}
	if r.pos+8 <= len(r.buf) {
		w := binary.LittleEndian.Uint64(r.buf[r.pos:])
		take := (64 - r.nacc) >> 3 // whole bytes that fit in acc
		r.acc |= (w & (1<<(take<<3) - 1)) << r.nacc
		r.pos += int(take)
		r.nacc += take << 3
		return
	}
	for r.nacc < n && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBits consumes and returns the next n bits (n ≤ 56). On overread it
// records ErrOverread and returns 0; an out-of-range n records ErrBitCount.
func (r *Reader) ReadBits(n uint) uint64 {
	if n > 56 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: ReadBits(%d)", ErrBitCount, n)
		}
		return 0
	}
	r.fill(n)
	if r.nacc < n {
		if r.err == nil {
			r.err = fmt.Errorf("%w: want %d bits, have %d", ErrOverread, n, r.nacc)
		}
		return 0
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	return v
}

// PeekBits returns the next n bits without consuming them. If fewer than n
// bits remain, the missing high bits are zero; no error is recorded. This
// mirrors how a hardware speculative Huffman decoder reads past the end of a
// bitstream during the final symbols.
func (r *Reader) PeekBits(n uint) uint64 {
	if n > 56 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: PeekBits(%d)", ErrBitCount, n)
		}
		return 0
	}
	r.fill(n)
	return r.acc & ((1 << n) - 1)
}

// Skip consumes n bits, which must already be available via PeekBits or the
// stream; otherwise ErrOverread is recorded.
func (r *Reader) Skip(n uint) { r.ReadBits(n) }

// BitsRemaining reports how many unread bits remain in the stream.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nacc)
}

// Err returns the first error encountered (ErrOverread or ErrBitCount).
func (r *Reader) Err() error { return r.err }
