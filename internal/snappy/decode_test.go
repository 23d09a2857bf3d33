package snappy

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cdpu/internal/corpus"
)

// TestForgedLengthRejectedUpFront: a header declaring 1 MiB over the body of
// a 300-byte run (the shape of a checked-in FuzzDecompress seed) declares
// more than the body could produce, so Decode rejects it as corrupt before
// allocating anything.
func TestForgedLengthRejectedUpFront(t *testing.T) {
	src := append([]byte{0x80, 0x80, 0x40}, Encode(bytes.Repeat([]byte{0xC3}, 300))[2:]...)
	if _, err := Decode(src); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Decode of a forged 1 MiB header: err %v, want ErrCorrupt", err)
	}
	if allocs := testing.AllocsPerRun(20, func() { _, _ = Decode(src) }); allocs != 0 {
		t.Errorf("rejecting a forged length allocates %v times, want 0", allocs)
	}
}

// TestElementFastPathMatchesDecodeElement holds element to decodeElement on
// every tag followed by 0 to 5 bytes, at the front of the body and after a
// byte: where the fast path answers it must answer as decodeElement does,
// and it must answer every literal of at most 60 bytes, copy-1 and copy-2
// that has its bytes and at least three body bytes.
func TestElementFastPathMatchesDecodeElement(t *testing.T) {
	tail := []byte{0x9B, 0x04, 0xE7, 0x31, 0x5A}
	for tag := 0; tag < 256; tag++ {
		for n := 0; n <= len(tail); n++ {
			for _, i := range []int{0, 1} {
				body := append(append(make([]byte, i), byte(tag)), tail[:n]...)
				name := fmt.Sprintf("tag %#02x + %d bytes at %d", tag, n, i)
				litLen, offset, copyLen, adv, ok := element(body, i)
				wl, wo, wc, wa, err := decodeElement(body, i)
				if ok && (err != nil || litLen != wl || offset != wo || copyLen != wc || adv != wa) {
					t.Fatalf("%s: fast path (%d, %d, %d, %d), decodeElement (%d, %d, %d, %d, %v)",
						name, litLen, offset, copyLen, adv, wl, wo, wc, wa, err)
				}
				fast := tag&0x03 == tagCopy1 || tag&0x03 == tagCopy2 || tag&0x03 == tagLiteral && tag>>2 < 60
				if want := fast && err == nil && n >= 2; ok != want {
					t.Fatalf("%s: fast path answered %v, want %v", name, ok, want)
				}
			}
		}
	}
}

// TestDecodeAllocs pins Decode at one allocation, the output, at every size:
// the slack it writes into comes with the output and never costs a second.
func TestDecodeAllocs(t *testing.T) {
	for _, size := range []int{4 << 10, 64 << 10, 1 << 20} {
		src := corpus.Generate(corpus.Log, size, 30)
		frame := Encode(src)
		got := testing.AllocsPerRun(10, func() {
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != 1 {
			t.Errorf("Decode of %d bytes allocates %v times, want 1", size, got)
		}
	}
}
