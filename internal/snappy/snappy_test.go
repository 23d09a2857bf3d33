package snappy

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
)

func roundTrip(t *testing.T, src []byte) []byte {
	t.Helper()
	enc := Encode(src)
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(src))
	}
	return enc
}

func TestRoundTripCorpora(t *testing.T) {
	for _, f := range corpus.SmallSuite() {
		t.Run(f.Name, func(t *testing.T) {
			enc := roundTrip(t, f.Data)
			// Snappy caps copies at 64 bytes, so even pure zeros cost ~3
			// bytes per 64: the best achievable ratio is ~21x.
			if f.Kind == corpus.Zeros && len(enc) > len(f.Data)/15 {
				t.Errorf("zeros compressed to %d bytes of %d", len(enc), len(f.Data))
			}
		})
	}
}

func TestRoundTripEdgeInputs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{0},
		{1, 2, 3},
		[]byte("aaaa"),
		bytes.Repeat([]byte{'x'}, 59),
		bytes.Repeat([]byte{'x'}, 60),
		bytes.Repeat([]byte{'x'}, 61),
		bytes.Repeat([]byte{'y'}, 256),
		bytes.Repeat([]byte{'z'}, 1<<16+3),
		[]byte("abcabcabcabcabcabcabc"),
	}
	for _, in := range inputs {
		roundTrip(t, in)
	}
}

func TestEmptyInputEncoding(t *testing.T) {
	enc := Encode(nil)
	if len(enc) != 1 || enc[0] != 0 {
		t.Fatalf("empty encoding = %x", enc)
	}
	got, err := Decode(enc)
	if err != nil || len(got) != 0 {
		t.Fatalf("decode empty: %v, %d bytes", err, len(got))
	}
}

func TestLiteralLengthBoundaries(t *testing.T) {
	// Incompressible data of every header-size boundary length.
	for _, n := range []int{1, 59, 60, 61, 255, 256, 257, 1 << 16, 1<<16 + 1} {
		data := corpus.Generate(corpus.Random, n, int64(n))
		roundTrip(t, data)
	}
}

func TestKnownVectorDecode(t *testing.T) {
	// Hand-assembled per format_description.txt:
	// length=11; literal "Wikipedia" is wrong-size; use:
	// "aaaaaaaa" = lit "aaaa" (tag 0x0C: len-1=3 <<2) + copy1 len 4 offset 4.
	enc := []byte{
		8,                        // decoded length 8
		0x0C, 'a', 'a', 'a', 'a', // literal, len 4
		0x01<<2 | 0x00<<5 | tagCopy1, // copy-1: len-4=0 -> wait, recompute below
		0x04,
	}
	// copy-1 byte: offsetHigh(3b)<<5 | (len-4)(3b)<<2 | tag(2b)
	enc[6] = 0<<5 | 0<<2 | tagCopy1
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("decode known vector: %v", err)
	}
	if string(got) != "aaaaaaaa" {
		t.Fatalf("got %q", got)
	}
}

func TestKnownVectorCopy2(t *testing.T) {
	enc := []byte{
		10,
		0x0C, 'a', 'b', 'c', 'd', // literal len 4
		(6-1)<<2 | tagCopy2, 0x04, 0x00, // copy-2: len 6, offset 4
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if string(got) != "abcdabcdab" {
		t.Fatalf("got %q", got)
	}
}

func TestKnownVectorCopy4(t *testing.T) {
	enc := []byte{
		8,
		0x0C, 'w', 'x', 'y', 'z',
		(4-1)<<2 | tagCopy4, 0x04, 0x00, 0x00, 0x00,
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if string(got) != "wxyzwxyz" {
		t.Fatalf("got %q", got)
	}
}

// TestWireVectorsOverlappingCopies pins the decoder to fixed frames written
// out byte by byte from format_description.txt: copies whose source overlaps
// their destination, under each of the three copy tags.
func TestWireVectorsOverlappingCopies(t *testing.T) {
	vectors := []struct {
		name string
		enc  []byte
		want string
	}{
		// literal "x"; copy-2 (tag 10, len-1=63 in the upper six bits = 0xfe),
		// offset 0x0001: the one-byte run.
		{"copy2 offset 1 len 64", []byte{0x41, 0x00, 'x', 0xfe, 0x01, 0x00}, strings.Repeat("x", 65)},
		// literal "abc"; copy-1 (tag 01, len-4=6 in bits 2-4, offset bits 8-10
		// zero = 0x19), offset low byte 0x03.
		{"copy1 offset 3 len 10", []byte{0x0d, 0x08, 'a', 'b', 'c', 0x19, 0x03}, "abcabcabcabca"},
		// literal "abc"; copy-2 (len-1=9 = 0x26), offset 0x0003.
		{"copy2 offset 3 len 10", []byte{0x0d, 0x08, 'a', 'b', 'c', 0x26, 0x03, 0x00}, "abcabcabcabca"},
		// literal "abc"; copy-4 (tag 11, len-1=9 = 0x27), offset 0x00000003.
		{"copy4 offset 3 len 10", []byte{0x0d, 0x08, 'a', 'b', 'c', 0x27, 0x03, 0x00, 0x00, 0x00}, "abcabcabcabca"},
		// literal "abcdefgh"; copy-1 len 11 (len-4=7 = 0x1d) offset 8, not
		// overlapping until its last three bytes; then copy-1 len 4 offset 1.
		{"copy1 offset 8 len 11 then run", []byte{0x17, 0x1c, 'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h', 0x1d, 0x08, 0x01, 0x01}, "abcdefghabcdefghabccccc"},
	}
	for _, v := range vectors {
		got, err := Decode(v.enc)
		if err != nil {
			t.Errorf("%s: %v", v.name, err)
		} else if string(got) != v.want {
			t.Errorf("%s: got %q, want %q", v.name, got, v.want)
		}
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	valid := Encode([]byte("hello hello hello hello"))
	cases := map[string][]byte{
		"empty":            {},
		"truncated header": {0x80},
		"huge length":      {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"short body":       valid[:len(valid)-2],
		"length mismatch":  append([]byte{200}, valid[1:]...),
		"bad offset":       {4, 0x00<<5 | 0<<2 | tagCopy1, 0x09}, // copy before start
		"truncated copy2":  {4, (4-1)<<2 | tagCopy2, 0x01},
		"truncated copy4":  {4, (4-1)<<2 | tagCopy4, 0x01, 0x00},
		"truncated lit60":  {4, 60 << 2},
		"truncated lit61":  {4, 61 << 2, 0x01},
	}
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: corrupt input decoded successfully", name)
		}
	}
}

func TestDecodeZeroOffsetRejected(t *testing.T) {
	enc := []byte{
		8,
		0x0C, 'a', 'b', 'c', 'd',
		(4-1)<<2 | tagCopy2, 0x00, 0x00, // offset 0
	}
	if _, err := Decode(enc); err == nil {
		t.Fatal("zero offset accepted")
	}
}

func TestCompressionRatioOnText(t *testing.T) {
	data := corpus.Generate(corpus.Text, 256<<10, 7)
	enc := Encode(data)
	ratio := float64(len(data)) / float64(len(enc))
	// Snappy on text achieves roughly 1.5-2.1x; require meaningful compression.
	if ratio < 1.3 {
		t.Errorf("text ratio %.2f too low", ratio)
	}
	if ratio > 4 {
		t.Errorf("text ratio %.2f implausibly high for snappy", ratio)
	}
}

func TestIncompressibleExpandsOnlySlightly(t *testing.T) {
	data := corpus.Generate(corpus.Random, 128<<10, 8)
	enc := Encode(data)
	if len(enc) > len(data)+len(data)/100+16 {
		t.Errorf("random data expanded to %d from %d", len(enc), len(data))
	}
}

func TestEncoderConfigWindow(t *testing.T) {
	// A small window encoder must still produce decodable output.
	e, err := NewEncoder(EncoderConfig{WindowSize: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.Generate(corpus.Log, 128<<10, 9)
	enc := e.Encode(data)
	got, err := Decode(enc)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("small-window round trip failed: %v", err)
	}
	// Its ratio should be no better than the full-window encoder's.
	full := Encode(data)
	if len(enc) < len(full) {
		t.Errorf("small window compressed better (%d) than full window (%d)", len(enc), len(full))
	}
}

func TestEncoderSmallHashTableStillCorrect(t *testing.T) {
	e, err := NewEncoder(EncoderConfig{TableEntries: 1 << 9})
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.Generate(corpus.JSON, 64<<10, 10)
	got, err := Decode(e.Encode(data))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("HT9 round trip failed: %v", err)
	}
}

func TestHardwareStyleNoSkipFindsMoreMatches(t *testing.T) {
	// The paper observes HW (no skipping) slightly beats SW ratio because it
	// probes every position (§6.3). Verify the mechanism exists.
	data := append(corpus.Generate(corpus.Random, 64<<10, 11),
		corpus.Generate(corpus.Text, 64<<10, 11)...)
	sw, _ := NewEncoder(Defaults())
	hwCfg := Defaults()
	hwCfg.SkipIncompressible = false
	hw, _ := NewEncoder(hwCfg)
	swLen := len(sw.Encode(data))
	hwLen := len(hw.Encode(data))
	if hwLen > swLen+swLen/200 {
		t.Errorf("no-skip encoder notably worse: %d vs %d", hwLen, swLen)
	}
}

func TestDecodedLen(t *testing.T) {
	enc := Encode(bytes.Repeat([]byte("ab"), 500))
	n, _, err := decodeHeader(enc)
	if err != nil || n != 1000 {
		t.Fatalf("decodeHeader = %d, %v", n, err)
	}
	if _, _, err := decodeHeader([]byte{0x80}); err == nil {
		t.Error("bad header accepted")
	}
}

func TestDecodeSeqsMatchesDecode(t *testing.T) {
	data := corpus.Generate(corpus.HTML, 96<<10, 12)
	enc := Encode(data)
	seqs, lits, n, err := AppendDecodeSeqs(nil, nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(data) {
		t.Fatalf("decoded len %d != %d", n, len(data))
	}
	out, err := lz77.AppendReconstruct(nil, seqs, lits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, data) {
		t.Fatal("AppendDecodeSeqs reconstruction mismatch")
	}
}

func TestDecodeSeqsOffsetsWithinWindow(t *testing.T) {
	data := corpus.Generate(corpus.Text, 512<<10, 13)
	seqs, _, _, err := AppendDecodeSeqs(nil, nil, Encode(data))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if s.Offset > MaxBlockWindow {
			t.Fatalf("offset %d beyond snappy window", s.Offset)
		}
		if s.MatchLen > 64 && s.Offset != 0 {
			t.Fatalf("copy length %d beyond element max", s.MatchLen)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeSel uint16, unitSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeSel) % 16384
		unit := 1 + int(unitSel)%97
		src := make([]byte, size)
		for i := range src {
			if i >= unit && rng.Intn(4) > 0 {
				src[i] = src[i-unit]
			} else {
				src[i] = byte(rng.Intn(256))
			}
		}
		got, err := Decode(Encode(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestLongMatchSplitting(t *testing.T) {
	// A very long match must be split into <=64-byte copies, all decodable,
	// with no sub-4-byte tail.
	src := append([]byte("0123456789abcdef"), bytes.Repeat([]byte("0123456789abcdef"), 1000)...)
	enc := roundTrip(t, src)
	seqs, _, _, err := AppendDecodeSeqs(nil, nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seqs {
		if s.Offset > 0 && s.MatchLen < 4 {
			t.Fatalf("copy of %d bytes emitted (offset %d)", s.MatchLen, s.Offset)
		}
	}
}

func TestWindowBoundaryOffset(t *testing.T) {
	// Regression: a match at offset exactly 65536 (the window bound) cannot
	// be a copy-2 (16-bit offset wraps to 0); the encoder must use copy-4.
	probe := []byte("0123456789abcdefORDERED?")
	src := append([]byte{}, probe...)
	src = append(src, corpus.Generate(corpus.Random, 65536-len(probe), 99)...)
	src = append(src, probe...) // repeats at distance exactly 65536
	roundTrip(t, src)
}

func TestAppendDecodeSeqsReusesBuffers(t *testing.T) {
	src := corpus.Generate(corpus.Log, 64<<10, 7)
	enc := Encode(src)
	// Warm pass to size the buffers.
	seqs, lits, _, err := AppendDecodeSeqs(nil, nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		var e error
		seqs, lits, _, e = AppendDecodeSeqs(seqs[:0], lits[:0], enc)
		if e != nil {
			t.Fatal(e)
		}
	})
	if allocs != 0 {
		t.Errorf("AppendDecodeSeqs with pre-grown buffers allocates %.1f objects/op, want 0", allocs)
	}
}

// BenchmarkDecode measures Decode per corpus kind and payload size, on
// frames of the default encoder. SetBytes counts decoded bytes.
func BenchmarkDecode(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"4K", 4 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}
	for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Skewed, corpus.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			for _, size := range sizes {
				b.Run(size.name, func(b *testing.B) {
					src := corpus.Generate(kind, size.n, 6)
					frame := Encode(src)
					b.SetBytes(int64(len(src)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := Decode(frame); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}
