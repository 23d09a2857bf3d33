package zstdlite

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
	"cdpu/internal/snappy"
)

func roundTrip(t *testing.T, p Params, src []byte) []byte {
	t.Helper()
	e, err := NewEncoder(p)
	if err != nil {
		t.Fatalf("NewEncoder: %v", err)
	}
	enc := e.Encode(src)
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
		t.Run(f.Name, func(t *testing.T) { roundTrip(t, Params{}, f.Data) })
	}
}

func TestRoundTripEdgeInputs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		{42},
		{1, 2},
		[]byte("abc"),
		bytes.Repeat([]byte{7}, 100),
		bytes.Repeat([]byte{7}, MaxBlockSize),
		bytes.Repeat([]byte{7}, MaxBlockSize+1),
		bytes.Repeat([]byte("xy"), MaxBlockSize),
		[]byte("abcabcabcabcabcabc"),
	}
	for _, in := range inputs {
		roundTrip(t, Params{}, in)
	}
}

func TestRoundTripLevels(t *testing.T) {
	data := corpus.Generate(corpus.Text, 200<<10, 21)
	sizes := map[int]int{}
	for _, level := range []int{-5, -1, 1, 3, 6, 9, 12, 19, 22} {
		enc := roundTrip(t, Params{Level: level}, data)
		sizes[level] = len(enc)
	}
	// Higher levels should not be dramatically worse than lower ones.
	if sizes[22] > sizes[1]*105/100 {
		t.Errorf("level 22 (%d bytes) worse than level 1 (%d bytes)", sizes[22], sizes[1])
	}
	// And the fast negative level should compress least or near-least.
	if sizes[-5] < sizes[22]*95/100 {
		t.Errorf("level -5 (%d) compressed better than level 22 (%d)", sizes[-5], sizes[22])
	}
}

func TestRoundTripWindowLogs(t *testing.T) {
	data := corpus.Generate(corpus.Log, 300<<10, 22)
	for _, wlog := range []int{10, 12, 16, 20, 24, 27} {
		roundTrip(t, Params{WindowLog: wlog}, data)
	}
}

func TestRoundTripTableLogs(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 100<<10, 23)
	for _, tlog := range []int{5, 7, 9, 12} {
		roundTrip(t, Params{TableLog: tlog}, data)
	}
}

func TestRoundTripLZOverride(t *testing.T) {
	// The CDPU model runs the ZStd pipeline over a Snappy-configured LZ77
	// encoder (64 KiB window, min match 4).
	lz := lz77.Config{
		WindowSize:    64 << 10,
		TableEntries:  1 << 14,
		Associativity: 1,
		MinMatch:      4,
	}
	data := corpus.Generate(corpus.HTML, 256<<10, 24)
	enc := roundTrip(t, Params{LZ: &lz}, data)
	// The snappy-configured LZ stage should yield a worse ratio than the
	// native level-3 configuration on window-sensitive data.
	native := roundTrip(t, Params{}, data)
	if len(enc) < len(native)*98/100 {
		t.Errorf("snappy-LZ zstd (%d) beat native (%d) convincingly; expected similar or worse", len(enc), len(native))
	}
}

func TestHeavyweightBeatsSnappy(t *testing.T) {
	// The justification for heavyweight algorithms (paper Figure 2c): on
	// compressible data, zstdlite must beat snappy's ratio.
	for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.HTML} {
		data := corpus.Generate(kind, 256<<10, 25)
		z := len(Encode(data))
		s := len(snappy.Encode(data))
		if z >= s {
			t.Errorf("%v: zstdlite %d >= snappy %d bytes", kind, z, s)
		}
	}
}

func TestHigherLevelImprovesRatioOnRedundantData(t *testing.T) {
	data := corpus.Generate(corpus.Text, 512<<10, 26)
	fast := len(roundTrip(t, Params{Level: -5}, data))
	best := len(roundTrip(t, Params{Level: 19}, data))
	if best >= fast {
		t.Errorf("level 19 (%d) no better than level -5 (%d)", best, fast)
	}
}

func TestIncompressibleFallsBackToRaw(t *testing.T) {
	data := corpus.Generate(corpus.Random, 256<<10, 27)
	enc := roundTrip(t, Params{}, data)
	overhead := len(enc) - len(data)
	if overhead > 64 {
		t.Errorf("random data expanded by %d bytes", overhead)
	}
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range info.Blocks {
		if b.Type != blockRaw {
			t.Errorf("incompressible block stored as type %d", b.Type)
		}
	}
}

func TestRLEBlock(t *testing.T) {
	data := bytes.Repeat([]byte{0xCC}, 50000)
	enc := roundTrip(t, Params{}, data)
	if len(enc) > 32 {
		t.Errorf("RLE frame is %d bytes", len(enc))
	}
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 1 || info.Blocks[0].Type != blockRLE || info.Blocks[0].RLEByte != 0xCC {
		t.Errorf("unexpected block structure: %+v", info.Blocks)
	}
}

func TestInspectExposesPipelineDetail(t *testing.T) {
	data := corpus.Generate(corpus.Text, 96<<10, 28)
	enc := Encode(data)
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	if info.ContentSize != len(data) {
		t.Fatalf("content size %d != %d", info.ContentSize, len(data))
	}
	sawCompressed := false
	for _, b := range info.Blocks {
		if !b.IsCompressed() {
			continue
		}
		sawCompressed = true
		if b.LitMode == litHuffman {
			if b.HuffMaxBits < 1 || b.HuffMaxBits > 15 {
				t.Errorf("huff max bits = %d", b.HuffMaxBits)
			}
			if len(b.Literals) != b.LitCount {
				t.Errorf("decoded %d literals, header says %d", len(b.Literals), b.LitCount)
			}
		}
		if len(b.Seqs) == 0 {
			t.Error("compressed block with no sequences")
		}
		if lz77.TotalLen(b.Seqs) != b.RawSize {
			t.Errorf("sequences cover %d of %d", lz77.TotalLen(b.Seqs), b.RawSize)
		}
	}
	if !sawCompressed {
		t.Fatal("no compressed blocks produced on text")
	}
}

func TestDecodedLen(t *testing.T) {
	data := corpus.Generate(corpus.Text, 10<<10, 29)
	enc := Encode(data)
	info, _, err := parseFrameHeader(enc)
	if err != nil || info.ContentSize != len(data) {
		t.Fatalf("ContentSize = %d, %v", info.ContentSize, err)
	}
	if _, _, err := parseFrameHeader([]byte("nope")); err != ErrMagic {
		t.Errorf("bad magic: %v", err)
	}
}

func TestDecodeCorruptInputs(t *testing.T) {
	valid := Encode(corpus.Generate(corpus.Text, 32<<10, 30))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0xff
	cases := map[string][]byte{
		"empty":      {},
		"bad magic":  {'N', 'O', 'P', 'E', 20, 0},
		"bad window": {'Z', 'S', 'L', '1', 99, 0},
		"truncated":  valid[:len(valid)/2],
		"no blocks":  valid[:6],
		"trailing":   append(append([]byte(nil), valid...), 0xAA),
	}
	for name, in := range cases {
		if _, err := Decode(in); err == nil {
			t.Errorf("%s: corrupt frame decoded", name)
		}
	}
	// A mid-frame bit flip must either error or produce different output,
	// never the original bytes silently.
	if got, err := Decode(flipped); err == nil {
		orig, _ := Decode(valid)
		if bytes.Equal(got, orig) {
			t.Error("bit flip silently ignored")
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Level: -99},
		{Level: 23},
		{WindowLog: 5},
		{WindowLog: 31},
		{TableLog: 2},
		{TableLog: 15},
		{HuffMaxBits: 4},
		{HuffMaxBits: 30},
		{LZ: &lz77.Config{WindowSize: 3}},
	}
	for i, p := range bad {
		if _, err := NewEncoder(p); err == nil {
			t.Errorf("case %d: invalid params accepted: %+v", i, p)
		}
	}
}

func TestWindowLogRecordedInFrame(t *testing.T) {
	enc := roundTrip(t, Params{WindowLog: 16}, corpus.Generate(corpus.Log, 64<<10, 31))
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	if info.WindowLog != 16 {
		t.Errorf("frame window log = %d", info.WindowLog)
	}
}

func TestMultiBlockFrames(t *testing.T) {
	data := corpus.Generate(corpus.Text, 3*MaxBlockSize+12345, 32)
	enc := roundTrip(t, Params{}, data)
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Blocks) != 4 {
		t.Errorf("got %d blocks, want 4", len(info.Blocks))
	}
	total := 0
	for _, b := range info.Blocks {
		total += b.RawSize
	}
	if total != len(data) {
		t.Errorf("blocks cover %d of %d", total, len(data))
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, sizeSel uint16, unitSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeSel) % 20000
		unit := 1 + int(unitSel)%50
		src := make([]byte, size)
		for i := range src {
			if i >= unit && rng.Intn(4) > 0 {
				src[i] = src[i-unit]
			} else {
				src[i] = byte(rng.Intn(64))
			}
		}
		got, err := Decode(Encode(src))
		return err == nil && bytes.Equal(got, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSeqCodeRoundTripProperty(t *testing.T) {
	f := func(v uint32) bool {
		c, extra, width := seqCode(v)
		if extraWidth(c) != width {
			return false
		}
		return seqValue(c, extra) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompressionRatioReasonable(t *testing.T) {
	data := corpus.Generate(corpus.Text, 1<<20, 33)
	enc := Encode(data)
	ratio := float64(len(data)) / float64(len(enc))
	if ratio < 2.0 {
		t.Errorf("text ratio %.2f below heavyweight expectations", ratio)
	}
}

func TestRepeatOffsetHistoryRoundTrip(t *testing.T) {
	var r repHistory
	r = newRepHistory()
	w := newRepHistory()
	offsets := []int{100, 100, 50, 100, 50, 50, 7, 100, 7, 7, 8, 1}
	for _, off := range offsets {
		v := r.encode(off)
		if got := w.decode(v); got != off {
			t.Fatalf("offset %d coded as %d decoded to %d", off, v, got)
		}
	}
}

func TestRepeatOffsetsShrinkStructuredData(t *testing.T) {
	// Records with a fixed stride repeat the same match distance; rep codes
	// should keep the offset stream cheap. We check the ratio is solid and
	// the stream round-trips (the rep win is implicit in the size).
	data := corpus.Generate(corpus.Table, 256<<10, 55)
	enc := roundTrip(t, Params{}, data)
	ratio := float64(len(data)) / float64(len(enc))
	if ratio < 3 {
		t.Errorf("structured-data ratio %.2f lower than expected with rep offsets", ratio)
	}
}

func TestDisableFSEFlateClassPipeline(t *testing.T) {
	data := corpus.Generate(corpus.Text, 128<<10, 56)
	enc := roundTrip(t, Params{DisableFSE: true}, data)
	full := roundTrip(t, Params{}, data)
	// Raw-coded sequences cost more bits than FSE-coded ones.
	if len(enc) <= len(full) {
		t.Errorf("huffman-only frame (%d) not larger than full pipeline (%d)", len(enc), len(full))
	}
	// And the wire must confirm no FSE streams were used.
	info, err := Inspect(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range info.Blocks {
		if !b.IsCompressed() {
			continue
		}
		for s, mode := range b.SeqModes {
			if mode != seqRaw {
				t.Fatalf("stream %d used mode %d with FSE disabled", s, mode)
			}
		}
	}
}

func TestParamsMatrixRoundTrip(t *testing.T) {
	// Every combination of the format's orthogonal options must round-trip:
	// level zone x window x FSE on/off x dictionary presence.
	kinds := []corpus.Kind{corpus.Log, corpus.Skewed}
	dict := corpus.Generate(corpus.Log, 8<<10, 60)
	for _, level := range []int{-3, 3, 12} {
		for _, wlog := range []int{12, 17, 22} {
			for _, noFSE := range []bool{false, true} {
				for _, withDict := range []bool{false, true} {
					p := Params{Level: level, WindowLog: wlog, DisableFSE: noFSE}
					if withDict {
						p.Dict = dict
					}
					e, err := NewEncoder(p)
					if err != nil {
						t.Fatalf("%+v: %v", p, err)
					}
					for ki, k := range kinds {
						data := corpus.Generate(k, 32<<10, int64(61+ki))
						enc := e.Encode(data)
						got, err := DecodeWithDict(enc, p.Dict)
						if err != nil {
							t.Fatalf("%+v on %v: %v", p, k, err)
						}
						if !bytes.Equal(got, data) {
							t.Fatalf("%+v on %v: round trip mismatch", p, k)
						}
					}
				}
			}
		}
	}
}
