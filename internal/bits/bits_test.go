package bits

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadSingleValues(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0b101, 3}, {0xff, 8}, {0x1234, 16},
		{0xdeadbeef, 32}, {0xffffffffffffff, 56}, {0, 0},
	}
	for _, c := range cases {
		var w Writer
		w.WriteBits(c.v, c.n)
		r := NewReader(w.Bytes())
		got := r.ReadBits(c.n)
		if got != c.v&((1<<c.n)-1) {
			t.Errorf("WriteBits(%#x,%d): read back %#x", c.v, c.n, got)
		}
		if r.Err() != nil {
			t.Errorf("WriteBits(%#x,%d): unexpected error %v", c.v, c.n, r.Err())
		}
	}
}

func TestWriteReadSequence(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type item struct {
		v uint64
		n uint
	}
	var items []item
	var w Writer
	for i := 0; i < 10000; i++ {
		n := uint(rng.Intn(57))
		v := rng.Uint64() & ((1 << n) - 1)
		items = append(items, item{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, it := range items {
		if got := r.ReadBits(it.n); got != it.v {
			t.Fatalf("item %d: got %#x want %#x (n=%d)", i, got, it.v, it.n)
		}
	}
	if r.Err() != nil {
		t.Fatalf("unexpected error: %v", r.Err())
	}
}

// TestBitLen: Bytes holds every bit written and pads only the last byte.
func TestBitLen(t *testing.T) {
	var w Writer
	if b := w.Bytes(); len(b) != 0 {
		t.Fatalf("empty writer Bytes = %x", b)
	}
	w.WriteBits(0b101, 3)
	w.WriteBits(0x1fff, 13)
	if b := w.Bytes(); len(b) != 2 || b[0] != 0xfd || b[1] != 0xff {
		t.Fatalf("Bytes after 3 + 13 bits = %x", b)
	}
	var short Writer
	short.WriteBits(0b101, 3)
	if b := short.Bytes(); len(b) != 1 || b[0] != 0b101 {
		t.Fatalf("Bytes after 3 bits = %x", b)
	}
}

func TestAlignPadsWithZeros(t *testing.T) {
	var w Writer
	w.WriteBits(0b1, 1)
	w.Align()
	w.WriteBits(0xab, 8)
	b := w.Bytes()
	if len(b) != 2 || b[0] != 0x01 || b[1] != 0xab {
		t.Fatalf("aligned bytes = %x", b)
	}
	r := NewReader(b)
	if r.ReadBits(1) != 1 {
		t.Fatal("first bit lost")
	}
	if pad := r.ReadBits(7); pad != 0 {
		t.Fatalf("padding = %#b", pad)
	}
	if got := r.ReadBits(8); got != 0xab {
		t.Fatalf("post-align byte = %#x", got)
	}
}

func TestOverread(t *testing.T) {
	r := NewReader([]byte{0xff})
	r.ReadBits(8)
	if r.Err() != nil {
		t.Fatal("error too early")
	}
	if got := r.ReadBits(1); got != 0 {
		t.Fatalf("overread returned %d", got)
	}
	if !errors.Is(r.Err(), ErrOverread) {
		t.Fatalf("want ErrOverread, got %v", r.Err())
	}
}

func TestPeekDoesNotConsume(t *testing.T) {
	var w Writer
	w.WriteBits(0b110101, 6)
	r := NewReader(w.Bytes())
	r.Fill(4)
	if p := r.Peek(4); p != 0b0101 {
		t.Fatalf("peek = %#b", p)
	}
	if got := r.ReadBits(6); got != 0b110101 {
		t.Fatalf("read after peek = %#b", got)
	}
}

func TestPeekPastEndIsZeroPadded(t *testing.T) {
	r := NewReader([]byte{0x03})
	r.Fill(16)
	if p := r.Peek(16); p != 0x0003 {
		t.Fatalf("peek past end = %#x", p)
	}
	if r.Err() != nil {
		t.Fatalf("peek must not set error: %v", r.Err())
	}
}

func TestWriterReset(t *testing.T) {
	var w Writer
	w.WriteBits(0xffff, 16)
	w.Reset()
	if b := w.Bytes(); len(b) != 0 {
		t.Fatalf("Bytes after reset = %x", b)
	}
	w.WriteBits(0x1, 1)
	if b := w.Bytes(); len(b) != 1 || b[0] != 1 {
		t.Fatalf("bytes after reset = %x", b)
	}
}

func TestBitsRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0, 0})
	if r.BitsRemaining() != 24 {
		t.Fatalf("remaining = %d", r.BitsRemaining())
	}
	r.ReadBits(5)
	if r.BitsRemaining() != 19 {
		t.Fatalf("remaining after 5 = %d", r.BitsRemaining())
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(vals []uint16, widthSeed uint8) bool {
		var w Writer
		widths := make([]uint, len(vals))
		for i, v := range vals {
			n := uint(widthSeed%16) + 1
			widths[i] = n
			w.WriteBits(uint64(v), n)
			widthSeed = widthSeed*31 + 7
		}
		r := NewReader(w.Bytes())
		widthSeed2 := widths
		for i, v := range vals {
			if r.ReadBits(widthSeed2[i]) != uint64(v)&((1<<widths[i])-1) {
				return false
			}
		}
		return r.Err() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestVarintRoundTrip(t *testing.T) {
	values := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<32 - 1, 1 << 40, 1<<64 - 1}
	for _, v := range values {
		enc := AppendUvarint(nil, v)
		got, n, err := Uvarint(enc)
		if err != nil || got != v || n != len(enc) {
			t.Errorf("varint %d: got %d (n=%d, err=%v, enc=%x)", v, got, n, err, enc)
		}
	}
}

func TestVarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		enc := AppendUvarint(nil, v)
		got, n, err := Uvarint(enc)
		return err == nil && got == v && n == len(enc)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVarintMalformed(t *testing.T) {
	cases := [][]byte{
		{},
		{0x80},
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // overflows 64 bits
	}
	for _, c := range cases {
		if _, _, err := Uvarint(c); err == nil {
			t.Errorf("Uvarint(%x): want error", c)
		}
	}
}

func TestVarintPrefixConsumption(t *testing.T) {
	enc := AppendUvarint(nil, 12345)
	enc = append(enc, 0xde, 0xad)
	v, n, err := Uvarint(enc)
	if err != nil || v != 12345 || n != len(enc)-2 {
		t.Fatalf("got v=%d n=%d err=%v", v, n, err)
	}
}

// TestFillWordRefillMatchesByteRefill cross-checks the 8-byte fast-path
// refill against a reference byte-at-a-time reader over random field widths.
func TestFillWordRefillMatchesByteRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var w Writer
	type field struct {
		v uint64
		n uint
	}
	var fields []field
	for i := 0; i < 5000; i++ {
		n := uint(1 + rng.Intn(56))
		v := rng.Uint64() & ((1 << n) - 1)
		fields = append(fields, field{v, n})
		w.WriteBits(v, n)
	}
	r := NewReader(w.Bytes())
	for i, f := range fields {
		if got := r.ReadBits(f.n); got != f.v {
			t.Fatalf("field %d: read %#x, want %#x", i, got, f.v)
		}
	}
	if r.Err() != nil {
		t.Fatalf("reader error: %v", r.Err())
	}
}

// BenchmarkBitsReaderFill measures the Reader refill hot path: many small
// reads over a long stream, the FSE/Huffman decode access pattern.
func BenchmarkBitsReaderFill(b *testing.B) {
	var w Writer
	const fields = 1 << 16
	for i := 0; i < fields; i++ {
		w.WriteBits(uint64(i), uint(5+i%11))
	}
	buf := w.Bytes()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(buf)
		for j := 0; j < fields; j++ {
			r.ReadBits(uint(5 + j%11))
		}
		if r.Err() != nil {
			b.Fatal(r.Err())
		}
	}
}
