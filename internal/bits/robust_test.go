package bits

import (
	"errors"
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

func TestReaderPeekBitCount(t *testing.T) {
	r := NewReader([]byte{0xab})
	if v := r.PeekBits(60); v != 0 {
		t.Fatalf("PeekBits(60) = %d, want 0", v)
	}
	if !errors.Is(r.Err(), ErrBitCount) {
		t.Fatalf("Err() = %v, want ErrBitCount", r.Err())
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
