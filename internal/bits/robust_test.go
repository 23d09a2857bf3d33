package bits

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func TestReaderBitCountSticky(t *testing.T) {
	r := NewReader([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	if v := r.ReadBits(57); v != 0 {
		t.Fatalf("ReadBits(57) = %d, want 0", v)
	}
	if !errors.Is(r.Err(), ErrBitCount) {
		t.Fatalf("Err() = %v, want ErrBitCount", r.Err())
	}
	// The error is sticky: the first failure is what Err reports even after
	// further (valid) reads.
	first := r.Err()
	r.ReadBits(8)
	if r.Err() != first {
		t.Fatalf("Err() changed after later read: %v", r.Err())
	}
}

func TestWriterBitCountSticky(t *testing.T) {
	w := NewWriter(16)
	w.WriteBits(0x5, 3)
	w.WriteBits(0xffff, 57) // out of range: recorded, not written
	if !errors.Is(w.Err(), ErrBitCount) {
		t.Fatalf("Err() = %v, want ErrBitCount", w.Err())
	}
	first := w.Err()
	w.WriteBits(1, 1)
	if w.Err() != first {
		t.Fatalf("Err() changed after later write: %v", w.Err())
	}
	if b := w.Bytes(); len(b) != 1 || b[0] != 0b1101 {
		t.Fatalf("Bytes() = %x: the rejected write must add nothing between the 3 bits before it and the 1 after", b)
	}
	w.Reset()
	if w.Err() != nil {
		t.Fatalf("Err() = %v after Reset, want nil", w.Err())
	}
}

func TestReaderWriterBoundaryCount(t *testing.T) {
	// 56 is the documented maximum and must work on both sides.
	w := NewWriter(8)
	w.WriteBits(0x00ff_eedd_ccbb_aa, 56)
	if w.Err() != nil {
		t.Fatalf("WriteBits(56): %v", w.Err())
	}
	r := NewReader(w.Bytes())
	if v := r.ReadBits(56); v != 0x00ff_eedd_ccbb_aa {
		t.Fatalf("ReadBits(56) = %#x", v)
	}
	if r.Err() != nil {
		t.Fatalf("ReadBits(56): %v", r.Err())
	}
}

// byteReader is the Reader contract one byte at a time, with no accumulator:
// the reference TestReaderMatchesByteReference holds the refilling Reader to.
type byteReader struct {
	buf []byte
	pos uint // bits consumed
	err error
}

func (b *byteReader) bit(i uint) uint64 {
	if i >= uint(len(b.buf))*8 {
		return 0
	}
	return uint64(b.buf[i/8]>>(i%8)) & 1
}

func (b *byteReader) peek(n uint) uint64 {
	var v uint64
	for i := uint(0); i < n; i++ {
		v |= b.bit(b.pos+i) << i
	}
	return v
}

func (b *byteReader) remaining() int { return len(b.buf)*8 - int(b.pos) }

func (b *byteReader) fail(err error) {
	if b.err == nil {
		b.err = err
	}
}

func (b *byteReader) ReadBits(n uint) uint64 {
	switch {
	case n > 56:
		b.fail(ErrBitCount)
		return 0
	case int(n) > b.remaining():
		b.fail(ErrOverread)
		return 0
	}
	v := b.peek(n)
	b.pos += n
	return v
}

// TestReaderMatchesByteReference runs random interleavings of ReadBits (widths
// 0–57), Fill then Peek, and Fill then Take within the bits left (widths
// 0–56), over streams of 0–17 bytes — short enough that refills keep landing
// on the stream's tail, where the 64-bit load gives way to byte loads — and
// holds every value, BitsRemaining and Err, through and after the first
// error, to the byte-at-a-time reference.
func TestReaderMatchesByteReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	sameErr := func(got, want error) bool {
		if want == nil {
			return got == nil
		}
		return errors.Is(got, want)
	}
	for trial := 0; trial < 20000; trial++ {
		buf := make([]byte, rng.Intn(18))
		rng.Read(buf)
		r, ref := NewReader(buf), &byteReader{buf: buf}
		var log []string
		for op := 0; op < 12; op++ {
			n := uint(rng.Intn(58))
			var got, want uint64
			switch rng.Intn(3) {
			case 0:
				got, want = r.ReadBits(n), ref.ReadBits(n)
				log = append(log, fmt.Sprintf("ReadBits(%d)", n))
			case 1:
				n = min(n, 56)
				r.Fill(n)
				got, want = r.Peek(n), ref.peek(n)
				log = append(log, fmt.Sprintf("Fill+Peek(%d)", n))
			default:
				n = min(n, 56, uint(ref.remaining()))
				r.Fill(n)
				got, want = r.Take(n), ref.ReadBits(n)
				log = append(log, fmt.Sprintf("Fill+Take(%d)", n))
			}
			if got != want || r.BitsRemaining() != ref.remaining() || !sameErr(r.Err(), ref.err) {
				t.Fatalf("%d-byte stream %x after %v: value %#x want %#x, remaining %d want %d, err %v want %v",
					len(buf), buf, log, got, want, r.BitsRemaining(), ref.remaining(), r.Err(), ref.err)
			}
		}
	}
}

// TestTakeOverrunIsReported holds the unchecked trio to its contract: Fill
// then Take reads what ReadBits reads, and a Take past the end reads zeros,
// leaves BitsRemaining negative by the overrun and makes Err report
// ErrOverread, which later reads keep.
func TestTakeOverrunIsReported(t *testing.T) {
	buf := []byte{0xb5, 0x3c, 0xff}
	r, ref := NewReader(buf), NewReader(buf)
	for _, n := range []uint{3, 9, 0, 7} {
		r.Fill(n)
		if p, got, want := r.Peek(n), r.Take(n), ref.ReadBits(n); p != want || got != want {
			t.Fatalf("Peek/Take(%d) = %#x/%#x, ReadBits = %#x", n, p, got, want)
		}
	}
	if r.Err() != nil || r.BitsRemaining() != 5 {
		t.Fatalf("err %v, remaining %d; want nil, 5", r.Err(), r.BitsRemaining())
	}
	r.Fill(8)
	if v := r.Take(8); v != 0x1f {
		t.Fatalf("overrunning Take = %#x, want the 5 bits left zero-extended (0x1f)", v)
	}
	if !errors.Is(r.Err(), ErrOverread) || r.BitsRemaining() != -3 {
		t.Fatalf("after overrun: err %v, remaining %d; want ErrOverread, -3", r.Err(), r.BitsRemaining())
	}
	first := r.Err()
	if v := r.ReadBits(1); v != 0 || r.Err() != first {
		t.Fatalf("read after overrun = %d, err %v; want 0 and the first error", v, r.Err())
	}
}
