package snappy

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"cdpu/internal/corpus"
)

func frameRoundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	n, err := w.Write(src)
	if err != nil || n != len(src) {
		t.Fatalf("Write: n=%d err=%v", n, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("frame round trip mismatch: %d vs %d bytes", len(got), len(src))
	}
	return buf.Bytes()
}

func TestFrameRoundTripCorpora(t *testing.T) {
	for _, f := range corpus.SmallSuite() {
		t.Run(f.Name, func(t *testing.T) { frameRoundTrip(t, f.Data) })
	}
}

func TestFrameRoundTripSizes(t *testing.T) {
	for _, n := range []int{0, 1, 100, MaxFrameUncompressed - 1, MaxFrameUncompressed,
		MaxFrameUncompressed + 1, 3 * MaxFrameUncompressed} {
		frameRoundTrip(t, corpus.Generate(corpus.Log, n, int64(n)))
	}
}

func TestFrameEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// An empty stream is just the identifier chunk.
	want := append([]byte{chunkStreamID, 6, 0, 0}, streamID...)
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("empty stream = %x", buf.Bytes())
	}
	got, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if err != nil || len(got) != 0 {
		t.Fatalf("read empty stream: %v, %d bytes", err, len(got))
	}
}

func TestFrameStreamIdentifierBytes(t *testing.T) {
	enc := frameRoundTrip(t, []byte("hello"))
	want := []byte{0xff, 6, 0, 0, 's', 'N', 'a', 'P', 'p', 'Y'}
	if !bytes.Equal(enc[:10], want) {
		t.Fatalf("stream prefix = %x", enc[:10])
	}
}

func TestFrameIncompressibleUsesUncompressedChunks(t *testing.T) {
	data := corpus.Generate(corpus.Random, 32<<10, 3)
	enc := frameRoundTrip(t, data)
	if enc[10] != chunkUncompressed {
		t.Errorf("first data chunk type = %#02x, want uncompressed", enc[10])
	}
	// Overhead: identifier + one header+crc per chunk.
	if len(enc) > len(data)+32 {
		t.Errorf("random framed to %d bytes from %d", len(enc), len(data))
	}
}

func TestFrameChecksumDetectsCorruption(t *testing.T) {
	data := corpus.Generate(corpus.Text, 10<<10, 4)
	enc := frameRoundTrip(t, data)
	// Flip a bit inside the first data chunk's payload (well past headers).
	enc[len(enc)/2] ^= 0x01
	_, err := io.ReadAll(NewFrameReader(bytes.NewReader(enc)))
	if err == nil {
		t.Fatal("corrupted stream read successfully")
	}
	if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestFrameRejectsMissingIdentifier(t *testing.T) {
	// A bare data chunk without the stream identifier.
	body := Encode([]byte("data"))
	crc := maskedCRC([]byte("data"))
	chunk := []byte{chunkCompressed, byte(len(body) + 4), 0, 0,
		byte(crc), byte(crc >> 8), byte(crc >> 16), byte(crc >> 24)}
	chunk = append(chunk, body...)
	if _, err := io.ReadAll(NewFrameReader(bytes.NewReader(chunk))); err == nil {
		t.Fatal("missing identifier accepted")
	}
}

func TestFrameSkipsPaddingChunks(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_, _ = w.Write([]byte("before"))
	// Inject a padding chunk and a reserved skippable chunk by hand.
	buf.Write([]byte{chunkPadding, 3, 0, 0, 0, 0, 0})
	buf.Write([]byte{0x90, 2, 0, 0, 0xAA, 0xBB})
	w2 := NewFrameWriter(&buf)
	w2.started = true // continue the same stream
	w2.w = &buf
	_ = w2.writeChunk([]byte("after"))
	got, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "beforeafter" {
		t.Fatalf("got %q", got)
	}
}

func TestFrameRejectsReservedUnskippable(t *testing.T) {
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_, _ = w.Write([]byte("x"))
	buf.Write([]byte{0x02, 1, 0, 0, 0})
	_, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if !errors.Is(err, ErrFraming) {
		t.Fatalf("unskippable chunk: %v", err)
	}
}

func TestFrameRefusesOverDeclaredChunkFromHeader(t *testing.T) {
	// A compressed chunk whose block header declares more than a chunk may
	// hold — here a well-formed 1 MiB block, ~48 KiB on the wire — is refused
	// on the header's word, not decoded first and measured afterwards.
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	_, _ = w.Write([]byte("before"))
	body := Encode(make([]byte, 1<<20))
	n := len(body) + 4
	buf.Write([]byte{chunkCompressed, byte(n), byte(n >> 8), byte(n >> 16), 0, 0, 0, 0})
	buf.Write(body)
	_, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if !errors.Is(err, ErrSizeLimit) {
		t.Fatalf("over-declared chunk: %v, want ErrSizeLimit", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	enc := frameRoundTrip(t, corpus.Generate(corpus.JSON, 8<<10, 5))
	for _, cut := range []int{2, 11, len(enc) - 3} {
		_, err := io.ReadAll(NewFrameReader(bytes.NewReader(enc[:cut])))
		if err == nil || err == io.EOF {
			t.Errorf("truncation at %d not detected (err=%v)", cut, err)
		}
	}
}

func TestMaskedCRCMatchesSpec(t *testing.T) {
	// Spec formula: ((crc >> 15) | (crc << 17)) + 0xa282ead8 over CRC-32C.
	b := []byte("snappy frame checksum")
	c := maskedCRC(b)
	c2 := maskedCRC(b)
	if c != c2 {
		t.Fatal("masked CRC not deterministic")
	}
	if maskedCRC([]byte("a")) == maskedCRC([]byte("b")) {
		t.Fatal("masked CRC collides trivially")
	}
}

func TestFrameChunkedWrites(t *testing.T) {
	data := corpus.Generate(corpus.HTML, 200<<10, 6)
	var buf bytes.Buffer
	w := NewFrameWriter(&buf)
	for off := 0; off < len(data); off += 7777 {
		end := off + 7777
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := io.ReadAll(NewFrameReader(bytes.NewReader(buf.Bytes())))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunked write round trip failed: %v", err)
	}
}

func TestFrameSmallReads(t *testing.T) {
	data := corpus.Generate(corpus.Text, 64<<10, 7)
	enc := frameRoundTrip(t, data)
	r := NewFrameReader(bytes.NewReader(enc))
	var got []byte
	p := make([]byte, 313)
	for {
		n, err := r.Read(p)
		got = append(got, p[:n]...)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, data) {
		t.Fatal("small-read round trip failed")
	}
}
