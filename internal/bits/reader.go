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
	nacc uint   // number of valid bits in acc; wrapped past 63 once a Take overruns
	err  error
}

// NewReader returns a Reader over buf. The Reader does not copy buf.
func NewReader(buf []byte) *Reader {
	return &Reader{buf: buf}
}

// The accumulator holds at most 63 bits, and a refill leaves at least 56 of
// them buffered while the stream has them.
//
// ReadBits checks every call. A decode loop that knows how many bits its next
// fields take uses the unchecked trio instead, which inlines: Fill once (the
// out-of-line refill loads whole bytes, so one load serves several fields),
// then Take or Peek buffered bits. A Take past the
// end of the stream is not checked when it happens; it leaves the reader
// overrun, which Err reports as ErrOverread. Any other error is recorded when
// it happens, and the first error recorded is the one Err keeps.

// fill buffers whole bytes until at least 56 bits are held or the stream is
// exhausted. Away from the end of the stream one 64-bit load refills as many
// whole bytes as fit below 64 bits; the tail falls back to byte-at-a-time
// refill. An overrun reader is not refilled.
func (r *Reader) fill() {
	if r.nacc > 63 {
		return
	}
	if r.pos+8 <= len(r.buf) {
		w := binary.LittleEndian.Uint64(r.buf[r.pos:])
		take := (63 - r.nacc) >> 3 // whole bytes that fit in acc
		r.acc |= (w & (1<<(take<<3) - 1)) << r.nacc
		r.pos += int(take)
		r.nacc += take << 3
		return
	}
	for r.nacc < 56 && r.pos < len(r.buf) {
		r.acc |= uint64(r.buf[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// Fill buffers at least n (≤ 56) bits, or every bit the stream has left, so
// that Takes and Peeks of up to n bits in all need no check of their own.
func (r *Reader) Fill(n uint) {
	if r.nacc < n {
		r.fill()
	}
}

// Take consumes and returns the next n (≤ 56) bits without a bounds check:
// the caller has Filled at least n. If the stream held fewer, the missing
// bits read as zero and the reader is overrun: Err reports ErrOverread,
// BitsRemaining is negative, and every later read returns 0.
func (r *Reader) Take(n uint) uint64 {
	v := r.acc & (1<<n - 1)
	r.acc >>= n
	r.nacc -= n
	return v
}

// Peek returns the next n (≤ 56) bits without consuming them or checking
// that they are buffered: bits past what Fill buffered read as zero.
func (r *Reader) Peek(n uint) uint64 {
	return r.acc & (1<<n - 1)
}

// ReadBits consumes and returns the next n bits (n ≤ 56). On overread it
// records ErrOverread and returns 0; an out-of-range n records ErrBitCount.
func (r *Reader) ReadBits(n uint) uint64 {
	if n > 56 || r.nacc < n || r.nacc > 63 {
		return r.readSlow(n)
	}
	return r.Take(n)
}

// readSlow is ReadBits when fewer than n bits are buffered, the reader is
// overrun, or n is out of range.
func (r *Reader) readSlow(n uint) uint64 {
	if n > 56 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: ReadBits(%d)", ErrBitCount, n)
		}
		return 0
	}
	r.fill()
	if r.nacc < n || r.nacc > 63 {
		if r.err == nil {
			r.err = fmt.Errorf("%w: want %d bits, have %d", ErrOverread, n, max(r.BitsRemaining(), 0))
		}
		return 0
	}
	return r.Take(n)
}

// BitsRemaining reports how many unread bits remain in the stream: negative,
// by how far, once a Take has overrun it.
func (r *Reader) BitsRemaining() int {
	return (len(r.buf)-r.pos)*8 + int(r.nacc)
}

// Err returns the first error encountered (ErrOverread or ErrBitCount).
func (r *Reader) Err() error {
	if r.nacc > 63 && r.err == nil {
		r.err = fmt.Errorf("%w: %d bits past the end", ErrOverread, -r.BitsRemaining())
	}
	return r.err
}
