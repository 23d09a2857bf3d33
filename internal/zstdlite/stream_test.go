package zstdlite

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	ibits "cdpu/internal/bits"
	"cdpu/internal/corpus"
)

func streamRoundTrip(t *testing.T, p Params, src []byte, dict []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewReader(bytes.NewReader(buf.Bytes()), dict))
	if err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("stream round trip mismatch: %d vs %d bytes", len(got), len(src))
	}
	return buf.Bytes()
}

func TestStreamRoundTripCorpora(t *testing.T) {
	for _, f := range corpus.SmallSuite() {
		t.Run(f.Name, func(t *testing.T) { streamRoundTrip(t, Params{}, f.Data, nil) })
	}
}

func TestStreamRoundTripSizes(t *testing.T) {
	for _, n := range []int{0, 1, 1000, MaxBlockSize - 1, MaxBlockSize, MaxBlockSize + 1, 3*MaxBlockSize + 17} {
		streamRoundTrip(t, Params{}, corpus.Generate(corpus.Log, n, int64(n)), nil)
	}
}

func TestStreamChunkedWrites(t *testing.T) {
	data := corpus.Generate(corpus.Text, 500<<10, 1)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 9999 {
		end := off + 9999
		if end > len(data) {
			end = len(data)
		}
		if _, err := w.Write(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewReader(&buf, nil))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("chunked stream round trip failed: %v", err)
	}
}

func TestStreamCrossBlockMatching(t *testing.T) {
	// A block-sized repetition: the second copy should compress to almost
	// nothing because the writer retains history across blocks.
	unit := corpus.Generate(corpus.Random, MaxBlockSize, 2)
	data := append(append([]byte{}, unit...), unit...)
	enc := streamRoundTrip(t, Params{}, data, nil)
	if len(enc) > len(unit)+len(unit)/4 {
		t.Errorf("cross-block redundancy not exploited: %d bytes for %d input", len(enc), len(data))
	}
}

func TestStreamFrameReadableByBlockDecoder(t *testing.T) {
	// Streaming frames (unknown size) must decode with the buffer API too.
	data := corpus.Generate(corpus.JSON, 300<<10, 3)
	enc := streamRoundTrip(t, Params{}, data, nil)
	got, err := Decode(enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("buffer decode of streaming frame: %v", err)
	}
	if info, _, err := parseFrameHeader(enc); err != nil || info.ContentSize != -1 {
		t.Fatalf("streaming frame ContentSize = %d, %v; want -1", info.ContentSize, err)
	}
}

func TestStreamReaderHandlesBufferFrames(t *testing.T) {
	// Frames from the buffer encoder (known size, frame-wide offsets) must
	// decode through the streaming reader.
	data := corpus.Generate(corpus.Text, 700<<10, 4)
	enc := Encode(data)
	got, err := io.ReadAll(NewReader(bytes.NewReader(enc), nil))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stream decode of buffer frame: %v", err)
	}
}

func TestStreamWriteAfterClose(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Params{})
	_ = w.Close()
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("write after close accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestStreamTruncated(t *testing.T) {
	enc := streamRoundTrip(t, Params{}, corpus.Generate(corpus.Log, 200<<10, 5), nil)
	for _, cut := range []int{3, 6, len(enc) / 2, len(enc) - 1} {
		if _, err := io.ReadAll(NewReader(bytes.NewReader(enc[:cut]), nil)); err == nil {
			t.Errorf("truncation at %d undetected", cut)
		}
	}
}

// TestStreamForgedCompressedSize: a stream of under twenty bytes whose one
// block declares a compressed body of 2^40 or 2^63 bytes is refused by the
// block parser's bound, and nothing is reserved on the header's word on the
// way (sizing a buffer from it ends the process: `runtime: out of memory`,
// or `makeslice: len out of range`).
func TestStreamForgedCompressedSize(t *testing.T) {
	for _, compSize := range []uint64{1 << 40, 1 << 63} {
		frame := append([]byte("ZSL1"), 17|flagUnknownSize, blockCompressed<<1|1, 16)
		frame = ibits.AppendUvarint(frame, compSize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := io.ReadAll(NewReader(bytes.NewReader(frame), nil))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("compressed size %#x: err = %v, want ErrCorrupt", compSize, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxBlockSize {
			t.Errorf("compressed size %#x: %d bytes allocated reading a %d-byte stream", compSize, grew, len(frame))
		}
		if _, err := Decode(frame); !errors.Is(err, ErrCorrupt) {
			t.Errorf("compressed size %#x: Decode err = %v, want ErrCorrupt", compSize, err)
		}
	}
}

// TestStreamReaderStopsAtFrameEnd: the Reader takes from its source exactly
// the frame's bytes, checksum trailer included, and leaves what follows.
func TestStreamReaderStopsAtFrameEnd(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 200<<10, 16)
	e, err := NewEncoder(Params{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(append(e.Encode(data), "next"...))
	got, err := io.ReadAll(NewReader(src, nil))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stream decode: %v", err)
	}
	if rest, _ := io.ReadAll(src); string(rest) != "next" {
		t.Fatalf("source left holding %q, want %q", rest, "next")
	}
}

// TestStreamReaderChecksDeclaredSize: the Reader holds a fixed-size frame's
// blocks to the content size its header declares, as the buffer decoder does.
func TestStreamReaderChecksDeclaredSize(t *testing.T) {
	data := corpus.Generate(corpus.Text, 3000, 6)
	enc := Encode(data)
	if enc[5] != byte(3000&0x7f|0x80) {
		t.Fatalf("content size varint not where the test expects it: % x", enc[:8])
	}
	for _, delta := range []int{-1, 1} {
		bad := append([]byte(nil), enc...)
		bad[5] += byte(delta)
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("declared size off by %+d: Decode err = %v, want ErrCorrupt", delta, err)
		}
		if out, err := io.ReadAll(NewReader(bytes.NewReader(bad), nil)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("declared size off by %+d: Reader returned %d bytes, err = %v, want ErrCorrupt", delta, len(out), err)
		}
	}
}

// --- Dictionary tests ---------------------------------------------------------

func TestDictionaryRoundTrip(t *testing.T) {
	dict := corpus.Generate(corpus.JSON, 16<<10, 6)
	data := corpus.Generate(corpus.JSON, 64<<10, 7)
	e, err := NewEncoder(Params{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.Encode(data)
	got, err := DecodeWithDict(enc, dict)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("dictionary round trip: %v", err)
	}
}

func TestDictionaryImprovesRatioOnSimilarData(t *testing.T) {
	// Dictionary = sample of the same source; payload is small, where
	// dictionaries matter most (the fleet's RPC-sized calls).
	dict := corpus.Generate(corpus.JSON, 32<<10, 8)
	data := corpus.Generate(corpus.JSON, 4<<10, 9)
	plain := Encode(data)
	e, err := NewEncoder(Params{Dict: dict})
	if err != nil {
		t.Fatal(err)
	}
	withDict := e.Encode(data)
	if len(withDict) >= len(plain) {
		t.Errorf("dictionary did not help: %d vs %d bytes", len(withDict), len(plain))
	}
}

func TestDictionaryRequiredAndValidated(t *testing.T) {
	dict := corpus.Generate(corpus.Text, 8<<10, 10)
	e, _ := NewEncoder(Params{Dict: dict})
	enc := e.Encode(corpus.Generate(corpus.Text, 16<<10, 11))
	if _, err := Decode(enc); !errors.Is(err, ErrDictionary) {
		t.Errorf("missing dictionary: %v", err)
	}
	wrong := corpus.Generate(corpus.Text, 8<<10, 12)
	if _, err := DecodeWithDict(enc, wrong); !errors.Is(err, ErrDictionary) {
		t.Errorf("wrong dictionary: %v", err)
	}
}

func TestDictionaryStreaming(t *testing.T) {
	dict := corpus.Generate(corpus.Log, 16<<10, 13)
	data := corpus.Generate(corpus.Log, 300<<10, 14)
	enc := streamRoundTrip(t, Params{Dict: dict}, data, dict)
	// Reading without the dictionary must fail.
	if _, err := io.ReadAll(NewReader(bytes.NewReader(enc), nil)); !errors.Is(err, ErrDictionary) {
		t.Errorf("dictionary-less stream read: %v", err)
	}
}

func TestDictIDStability(t *testing.T) {
	d := []byte("dictionary contents")
	if DictID(d) != DictID(append([]byte{}, d...)) {
		t.Fatal("DictID not content-deterministic")
	}
	if DictID([]byte("a")) == DictID([]byte("b")) {
		t.Fatal("DictID trivially collides")
	}
}

func TestCrossBlockMatchingImprovesBufferEncoder(t *testing.T) {
	// The buffer encoder parses frame-wide: redundancy 128 KiB apart (in
	// different blocks) must now be found when the window allows it.
	unit := corpus.Generate(corpus.Random, MaxBlockSize, 15)
	data := append(append([]byte{}, unit...), unit...)
	e, err := NewEncoder(Params{WindowLog: 18}) // 256 KiB window
	if err != nil {
		t.Fatal(err)
	}
	enc := e.Encode(data)
	if len(enc) > len(unit)+len(unit)/4 {
		t.Errorf("frame-wide matching missed cross-block redundancy: %d bytes", len(enc))
	}
	got, err := Decode(enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("cross-block frame decode: %v", err)
	}
	// A small window must not find it.
	small, err := NewEncoder(Params{WindowLog: 15})
	if err != nil {
		t.Fatal(err)
	}
	encSmall := small.Encode(data)
	if len(encSmall) < len(data)*9/10 {
		t.Errorf("32 KiB window somehow found 128 KiB-distant matches (%d bytes)", len(encSmall))
	}
}

func TestChecksumRoundTrip(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 300<<10, 70)
	// Buffer API.
	e, err := NewEncoder(Params{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.Encode(data)
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !info.HasChecksum {
		t.Fatal("checksum flag lost")
	}
	got, err := Decode(enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("checksummed round trip: %v", err)
	}
	// Streaming API.
	streamRoundTrip(t, Params{Checksum: true}, data, nil)
	// Cross: streamed frame through the buffer decoder and vice versa.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Params{Checksum: true})
	_, _ = w.Write(data)
	_ = w.Close()
	got, err = Decode(buf.Bytes())
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("buffer decode of checksummed stream: %v", err)
	}
	got, err = io.ReadAll(NewReader(bytes.NewReader(enc), nil))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("stream decode of checksummed buffer frame: %v", err)
	}
}

func TestChecksumDetectsLiteralTamper(t *testing.T) {
	// A flipped literal byte decodes "successfully" in an unchecksummed
	// frame (different output); with the checksum it must be caught.
	data := corpus.Generate(corpus.Text, 64<<10, 71)
	e, err := NewEncoder(Params{Checksum: true})
	if err != nil {
		t.Fatal(err)
	}
	enc := e.Encode(data)
	caught := 0
	for pos := len(enc) / 4; pos < len(enc); pos += len(enc) / 7 {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x10
		if _, err := Decode(bad); err != nil {
			caught++
		}
	}
	if caught == 0 {
		t.Error("no tampering caught across probes")
	}
	// And the empty-frame checksum must round-trip too.
	empty := e.Encode(nil)
	if out, err := Decode(empty); err != nil || len(out) != 0 {
		t.Fatalf("empty checksummed frame: %v", err)
	}
}

func TestChecksumStreamDetectsTamper(t *testing.T) {
	data := corpus.Generate(corpus.Log, 200<<10, 72)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, Params{Checksum: true})
	_, _ = w.Write(data)
	_ = w.Close()
	enc := buf.Bytes()
	bad := append([]byte(nil), enc...)
	bad[len(bad)/2] ^= 0x01
	if out, err := io.ReadAll(NewReader(bytes.NewReader(bad), nil)); err == nil {
		if bytes.Equal(out, data) {
			t.Error("tampered stream silently decoded to the original")
		}
	}
}
