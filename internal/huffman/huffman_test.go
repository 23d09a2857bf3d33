package huffman

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	ibits "cdpu/internal/bits"
	"cdpu/internal/corpus"
)

func histogram(data []byte) []int {
	h := make([]int, 256)
	for _, b := range data {
		h[b]++
	}
	return h
}

// readTable reads a WriteTable header back the way zstdlite's parser does:
// the serialized lengths, then the table they describe.
func readTable(r *ibits.Reader) (*CodeTable, error) {
	lens, err := AppendReadLengths(nil, r)
	if err != nil {
		return nil, err
	}
	return FromLengths(lens)
}

func roundTrip(t *testing.T, data []byte, maxBits int) {
	t.Helper()
	var b Builder
	table, err := b.Build(histogram(data), maxBits)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var w ibits.Writer
	table.WriteTable(&w)
	if err := b.Encoder().Encode(&w, data); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	r := ibits.NewReader(w.Bytes())
	table2, err := readTable(r)
	if err != nil {
		t.Fatalf("readTable: %v", err)
	}
	out, err := NewDecoder(table2).Decode(r, nil, len(data))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(out, data) {
		t.Fatalf("round trip mismatch (%d vs %d bytes)", len(out), len(data))
	}
}

func TestRoundTripCorpora(t *testing.T) {
	for _, f := range corpus.SmallSuite() {
		if f.Kind == corpus.Zeros {
			continue // single-symbol handled separately
		}
		t.Run(f.Name, func(t *testing.T) { roundTrip(t, f.Data[:16<<10], 11) })
	}
}

func TestRoundTripSingleSymbol(t *testing.T) {
	roundTrip(t, bytes.Repeat([]byte{'z'}, 1000), 11)
}

func TestRoundTripTwoSymbols(t *testing.T) {
	data := bytes.Repeat([]byte{'a', 'b', 'a'}, 500)
	roundTrip(t, data, 11)
}

func TestRoundTripAllByteValues(t *testing.T) {
	var data []byte
	for i := 0; i < 256; i++ {
		data = append(data, bytes.Repeat([]byte{byte(i)}, 1+i%7)...)
	}
	roundTrip(t, data, 11)
	roundTrip(t, data, 9) // tighter limit forces length clamping with 256 symbols
}

func TestLengthLimitRespected(t *testing.T) {
	// Fibonacci-like frequencies force deep unrestricted codes.
	freqs := make([]int, 40)
	a, b := 1, 1
	for i := range freqs {
		freqs[i] = a
		a, b = b, a+b
		if a > 1<<40 {
			a = 1 << 40
		}
	}
	for _, maxBits := range []int{8, 11, 15} {
		table, err := new(Builder).Build(freqs, maxBits)
		if err != nil {
			t.Fatalf("maxBits=%d: %v", maxBits, err)
		}
		for s, l := range table.Lens {
			if int(l) > maxBits {
				t.Errorf("maxBits=%d: symbol %d got length %d", maxBits, s, l)
			}
		}
	}
}

func TestCodesArePrefixFree(t *testing.T) {
	data := corpus.Generate(corpus.Text, 32<<10, 3)
	table, err := new(Builder).Build(histogram(data), 11)
	if err != nil {
		t.Fatal(err)
	}
	type cl struct {
		code uint16
		len  uint8
	}
	var codes []cl
	for s, l := range table.Lens {
		if l > 0 {
			codes = append(codes, cl{table.codes[s], l})
		}
	}
	for i := range codes {
		for j := range codes {
			if i == j {
				continue
			}
			a, b := codes[i], codes[j]
			if a.len > b.len {
				continue
			}
			// a must not be a prefix of b (MSB-first convention).
			if b.code>>(b.len-a.len) == a.code {
				t.Fatalf("code %b/%d is a prefix of %b/%d", a.code, a.len, b.code, b.len)
			}
		}
	}
}

func TestOptimalityVsUniform(t *testing.T) {
	// Skewed data must encode to fewer bits than 8 per symbol.
	data := corpus.Generate(corpus.Text, 64<<10, 1)
	table, err := new(Builder).Build(histogram(data), 11)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for _, c := range data {
		got += int(table.Lens[c])
	}
	if got >= len(data)*8 {
		t.Errorf("huffman did not compress text: %d bits for %d bytes", got, len(data))
	}
}

func TestMoreFrequentSymbolsGetShorterCodes(t *testing.T) {
	freqs := make([]int, 4)
	freqs[0] = 100
	freqs[1] = 10
	freqs[2] = 5
	freqs[3] = 1
	table, err := new(Builder).Build(freqs, 11)
	if err != nil {
		t.Fatal(err)
	}
	if table.Lens[0] > table.Lens[3] {
		t.Errorf("frequent symbol has longer code: %v", table.Lens)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := new(Builder).Build(make([]int, 256), 11); err == nil {
		t.Error("empty alphabet accepted")
	}
	if _, err := new(Builder).Build([]int{1, 1}, 0); err == nil {
		t.Error("maxBits=0 accepted")
	}
	if _, err := new(Builder).Build([]int{1, 1}, 16); err == nil {
		t.Error("maxBits>limit accepted")
	}
	manySyms := make([]int, 256)
	for i := range manySyms {
		manySyms[i] = 1
	}
	if _, err := new(Builder).Build(manySyms, 7); err == nil {
		t.Error("256 symbols in 7-bit codes accepted")
	}
}

func TestFromLengthsValidation(t *testing.T) {
	// Oversubscribed: three 1-bit codes.
	if _, err := FromLengths([]uint8{1, 1, 1}); err == nil {
		t.Error("oversubscribed lengths accepted")
	}
	// Incomplete: single 2-bit code with another symbol present.
	if _, err := FromLengths([]uint8{2, 2}); err == nil {
		t.Error("incomplete lengths accepted")
	}
	// Valid complete.
	if _, err := FromLengths([]uint8{1, 2, 2}); err != nil {
		t.Errorf("valid lengths rejected: %v", err)
	}
	// All-zero.
	if _, err := FromLengths([]uint8{0, 0}); err == nil {
		t.Error("all-zero lengths accepted")
	}
}

func TestEncodeUnknownSymbol(t *testing.T) {
	var b Builder
	if _, err := b.Build(histogram([]byte("aaabbb")), 11); err != nil {
		t.Fatal(err)
	}
	var w ibits.Writer
	if err := b.Encoder().Encode(&w, []byte("abc")); err == nil {
		t.Error("encoding symbol without code succeeded")
	}
}

func TestDecodeCorruptStream(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	var b Builder
	table, _ := b.Build(histogram(data), 11)
	var w ibits.Writer
	_ = b.Encoder().Encode(&w, data)
	enc := w.Bytes()
	dec := NewDecoder(table)
	// Truncated stream must error, not hang or panic.
	r := ibits.NewReader(enc[:1])
	if _, err := dec.Decode(r, nil, len(data)); err == nil {
		t.Error("truncated stream decoded without error")
	}
}

func TestDecoderTableEntries(t *testing.T) {
	data := corpus.Generate(corpus.Text, 8<<10, 2)
	table, _ := new(Builder).Build(histogram(data), 11)
	d := NewDecoder(table)
	if len(d.table) != 1<<table.MaxBits {
		t.Errorf("table entries = %d, want %d", len(d.table), 1<<table.MaxBits)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16, alphabet uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%4096 + 1
		nsym := int(alphabet)%64 + 1
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(rng.Intn(nsym))
		}
		var b Builder
		table, err := b.Build(histogram(data), 11)
		if err != nil {
			return false
		}
		var w ibits.Writer
		if b.Encoder().Encode(&w, data) != nil {
			return false
		}
		out, err := NewDecoder(table).Decode(ibits.NewReader(w.Bytes()), nil, size)
		return err == nil && bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestTableSerializationRoundTrip(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 16<<10, 5)
	table, _ := new(Builder).Build(histogram(data), 11)
	var w ibits.Writer
	table.WriteTable(&w)
	got, err := readTable(ibits.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for s := range table.Lens {
		var gl uint8
		if s < len(got.Lens) {
			gl = got.Lens[s]
		}
		if gl != table.Lens[s] {
			t.Fatalf("symbol %d: length %d != %d", s, gl, table.Lens[s])
		}
	}
}

// refLengths is the length computation Build runs, over leaves ordered by a
// stable sort of the symbols by frequency: the (freq, symbol) order the
// Builder's typed leaf sort must reproduce. It follows Build's flattening
// retry, so the two agree only if every attempt's leaf order agrees.
func refLengths(freqs []int, maxBits int) []uint8 {
	type node struct{ freq, sym, left, right int }
	work := append([]int(nil), freqs...)
	for {
		var nodes []node
		var leaves []int
		for s, f := range work {
			if f > 0 {
				nodes = append(nodes, node{f, s, -1, -1})
				leaves = append(leaves, len(nodes)-1)
			}
		}
		sort.SliceStable(leaves, func(i, j int) bool { return nodes[leaves[i]].freq < nodes[leaves[j]].freq })
		lens := make([]uint8, len(work))
		if len(leaves) == 1 {
			lens[nodes[leaves[0]].sym] = 1
			return lens
		}
		var internals []int
		li, ii := 0, 0
		pop := func() int {
			if li < len(leaves) && (ii >= len(internals) || nodes[leaves[li]].freq <= nodes[internals[ii]].freq) {
				li++
				return leaves[li-1]
			}
			ii++
			return internals[ii-1]
		}
		for range len(leaves) - 1 {
			x, y := pop(), pop()
			nodes = append(nodes, node{nodes[x].freq + nodes[y].freq, -1, x, y})
			internals = append(internals, len(nodes)-1)
		}
		var depth func(n, d int)
		depth = func(n, d int) {
			if nd := nodes[n]; nd.sym >= 0 {
				lens[nd.sym] = uint8(d)
			} else {
				depth(nd.left, d+1)
				depth(nd.right, d+1)
			}
		}
		depth(pop(), 0)
		if slices.Max(lens) <= uint8(maxBits) {
			return lens
		}
		for i, f := range work {
			if f > 0 {
				work[i] = f/2 + 1
			}
		}
	}
}

// TestBuildMatchesStableSortReference holds Build's code lengths to
// refLengths on random frequency vectors with heavy ties, and on vectors
// whose largest frequency sits at the edge of what packs into a uint64 leaf
// key beside a symbol index, where the Builder must fall back to a
// comparison sort.
func TestBuildMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var b Builder // reused, as the codecs reuse theirs
	check := func(name string, freqs []int, maxBits int) {
		t.Helper()
		table, err := b.Build(freqs, maxBits)
		if err != nil {
			t.Fatalf("%s: Build: %v", name, err)
		}
		want := refLengths(freqs, maxBits)
		if !slices.Equal(table.Lens, want) {
			t.Fatalf("%s maxBits=%d: lengths\n got %v\nwant %v", name, maxBits, table.Lens, want)
		}
	}
	for i := range 300 {
		n := 2 + rng.Intn(255)
		distinct := 1 + rng.Intn(4) // few distinct values: many ties
		values := make([]int, distinct)
		for j := range values {
			values[j] = 1 + rng.Intn(1+rng.Intn(5000))
		}
		freqs := make([]int, n)
		for j := range freqs {
			if rng.Intn(4) > 0 {
				freqs[j] = values[rng.Intn(distinct)]
			}
		}
		freqs[rng.Intn(n)] = values[0]
		for _, maxBits := range []int{8, 11, MaxBitsLimit} {
			check(fmt.Sprintf("ties-%d", i), freqs, maxBits)
		}
	}
	// With 256 leaves a leaf index takes 8 bits, so 1<<56-1 is the largest
	// frequency that packs and 1<<56 the smallest that must not.
	limit := 1 << (64 - 8)
	if _, ok := packShift(256, limit-1); !ok {
		t.Fatal("packShift: 1<<56-1 with 256 leaves should pack")
	}
	if _, ok := packShift(256, limit); ok {
		t.Fatal("packShift: 1<<56 with 256 leaves should not pack")
	}
	for _, top := range []int{limit - 1, limit, limit + 12345} {
		freqs := make([]int, 256)
		for j := range freqs {
			freqs[j] = 1 + rng.Intn(3)
		}
		for _, j := range []int{3, 77, 200} {
			freqs[j] = top
		}
		freqs[150] = top - 1
		for _, maxBits := range []int{11, MaxBitsLimit} {
			check(fmt.Sprintf("limit-%d", top), freqs, maxBits)
		}
	}
}

// refDecode is Decode one symbol at a time on the checked ReadBits: a peek of
// MaxBits through a copy of the reader (the bits past the stream's end read as
// zero), a remaining-bits check and a ReadBits of the code per symbol.
func refDecode(d *Decoder, r *ibits.Reader, dst []byte, n int) ([]byte, error) {
	for i := 0; i < n; i++ {
		peek := *r
		entry := d.table[peek.ReadBits(uint(min(d.maxBits, max(r.BitsRemaining(), 0))))]
		l := uint(entry & 0xf)
		if l == 0 {
			return dst, fmt.Errorf("huffman: invalid code at symbol %d", i)
		}
		if r.BitsRemaining() < int(l) {
			return dst, ibits.ErrOverread
		}
		r.ReadBits(l)
		dst = append(dst, byte(entry>>4))
	}
	return dst, nil
}

// TestDecodeMatchesPerSymbolReference holds the batched Decode to the
// per-symbol loop on valid streams, truncated ones and random bytes (a
// one-symbol table leaves half its codes invalid), asking for symbols past
// the stream's end: the same symbols, the same error at the same symbol, the
// same bits left.
func TestDecodeMatchesPerSymbolReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 3000; trial++ {
		data := make([]byte, 1+rng.Intn(300))
		alphabet := 1 + rng.Intn(256)
		for i := range data {
			data[i] = byte(rng.Intn(1 + rng.Intn(alphabet)))
		}
		maxBits := 8 + rng.Intn(MaxBitsLimit-7)
		var b Builder
		table, err := b.Build(histogram(data), maxBits)
		if err != nil {
			t.Fatal(err)
		}
		var w ibits.Writer
		if err := b.Encoder().Encode(&w, data); err != nil {
			t.Fatal(err)
		}
		stream := w.Bytes()
		switch trial % 3 {
		case 1:
			stream = stream[:rng.Intn(len(stream)+1)]
		case 2:
			stream = make([]byte, rng.Intn(40))
			rng.Read(stream)
		}
		n := len(data) + rng.Intn(8)
		d := NewDecoder(table)
		r, ref := ibits.NewReader(stream), ibits.NewReader(stream)
		got, err := d.Decode(r, nil, n)
		want, werr := refDecode(d, ref, nil, n)
		if !bytes.Equal(got, want) || fmt.Sprint(err) != fmt.Sprint(werr) || r.BitsRemaining() != ref.BitsRemaining() {
			t.Fatalf("trial %d (maxBits %d, %d-byte stream, n %d): got %d symbols, err %v, %d bits left; reference %d, %v, %d",
				trial, table.MaxBits, len(stream), n, len(got), err, r.BitsRemaining(), len(want), werr, ref.BitsRemaining())
		}
	}
}
