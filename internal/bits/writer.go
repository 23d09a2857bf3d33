// Package bits provides LSB-first bit-granular readers and writers plus the
// unsigned varint encoding shared by the wire formats in this repository.
//
// All entropy-coded streams (Huffman, FSE) are written least-significant-bit
// first, matching the convention used by DEFLATE, Zstandard and the CDPU
// hardware blocks they model: a value v written with n bits occupies the next
// n vacant bits of the stream starting at the lowest one.
package bits

import "fmt"

// Writer accumulates bits LSB-first into a byte slice.
//
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, LSB-aligned
	nacc uint   // number of valid bits in acc (always < 8 between calls)
	err  error
}

// NewWriter returns a Writer whose output buffer has the given capacity hint.
func NewWriter(capacity int) *Writer {
	return &Writer{buf: make([]byte, 0, capacity)}
}

// WriteBits appends the low n bits of v to the stream. n must be in [0, 56];
// an out-of-range n records ErrBitCount (see Err) and writes nothing.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 56 {
		if w.err == nil {
			w.err = fmt.Errorf("%w: WriteBits(%d)", ErrBitCount, n)
		}
		return
	}
	w.acc |= (v & ((1 << n) - 1)) << w.nacc
	w.nacc += n
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// Align pads the stream with zero bits up to the next byte boundary.
func (w *Writer) Align() {
	if w.nacc > 0 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc = 0
		w.nacc = 0
	}
}

// Bytes flushes any partial byte (zero padded) and returns the underlying
// buffer. The Writer remains usable; further writes continue byte-aligned.
func (w *Writer) Bytes() []byte {
	w.Align()
	return w.buf
}

// Reset discards all written data and any error, retaining the buffer's
// capacity.
func (w *Writer) Reset() {
	w.buf = w.buf[:0]
	w.acc = 0
	w.nacc = 0
	w.err = nil
}

// Err returns the first error encountered (ErrBitCount), if any.
func (w *Writer) Err() error { return w.err }
