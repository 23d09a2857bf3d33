package fse

import (
	"bytes"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	ibits "cdpu/internal/bits"
)

func histogram(symbols []uint8, n int) []int {
	h := make([]int, n)
	for _, s := range symbols {
		h[s]++
	}
	return h
}

func roundTrip(t *testing.T, symbols []uint8, alphabet, tableLog int) {
	t.Helper()
	norm, err := Normalize(histogram(symbols, alphabet), tableLog)
	if err != nil {
		t.Fatalf("Normalize: %v", err)
	}
	enc, err := NewEncTable(norm, tableLog)
	if err != nil {
		t.Fatalf("NewEncTable: %v", err)
	}
	var w ibits.Writer
	if err := WriteNorm(&w, norm, tableLog); err != nil {
		t.Fatalf("WriteNorm: %v", err)
	}
	if err := enc.Encode(&w, symbols); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	r := ibits.NewReader(w.Bytes())
	norm2, tl2, err := AppendReadNorm(nil, r)
	if err != nil {
		t.Fatalf("AppendReadNorm: %v", err)
	}
	if tl2 != tableLog {
		t.Fatalf("tableLog %d != %d", tl2, tableLog)
	}
	dec, err := NewDecTable(norm2, tl2)
	if err != nil {
		t.Fatalf("NewDecTable: %v", err)
	}
	out, err := dec.Decode(r, nil, len(symbols))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(out, symbols) {
		for i := range out {
			if out[i] != symbols[i] {
				t.Fatalf("first mismatch at %d: got %d want %d (len %d)", i, out[i], symbols[i], len(symbols))
			}
		}
		t.Fatalf("length mismatch: %d vs %d", len(out), len(symbols))
	}
}

func skewedSymbols(rng *rand.Rand, n, alphabet int) []uint8 {
	out := make([]uint8, n)
	for i := range out {
		u := rng.Float64()
		out[i] = uint8(int(u*u*float64(alphabet)) % alphabet)
	}
	return out
}

func TestRoundTripSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, alphabet := range []int{2, 3, 16, 36, 53, 64} {
		for _, tableLog := range []int{5, 6, 9, 12} {
			if alphabet > 1<<tableLog {
				continue
			}
			syms := skewedSymbols(rng, 5000, alphabet)
			// Ensure at least 2 distinct symbols (skew could collapse).
			syms[0], syms[1] = 0, uint8(alphabet-1)
			roundTrip(t, syms, alphabet, tableLog)
		}
	}
}

func TestRoundTripUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	syms := make([]uint8, 4096)
	for i := range syms {
		syms[i] = uint8(rng.Intn(32))
	}
	roundTrip(t, syms, 32, 6)
}

func TestRoundTripShortInputs(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17} {
		syms := make([]uint8, n)
		for i := range syms {
			syms[i] = uint8(i % 2)
		}
		roundTrip(t, syms, 2, 5)
	}
}

func TestRoundTripRareSymbol(t *testing.T) {
	// One symbol appears once among thousands: exercises the n==1 table path.
	syms := bytes.Repeat([]byte{7}, 4000)
	syms[1234] = 3
	syms[2345] = 5
	roundTrip(t, syms, 8, 6)
}

func TestCompressionBeatsRawOnSkewedData(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	syms := skewedSymbols(rng, 20000, 32)
	norm, err := Normalize(histogram(syms, 32), 9)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncTable(norm, 9)
	if err != nil {
		t.Fatal(err)
	}
	bitsUsed := enc.EncodedBits(syms)
	raw := len(syms) * 5 // 5 bits/symbol raw for 32-symbol alphabet
	if bitsUsed >= raw {
		t.Errorf("FSE used %d bits, raw coding uses %d", bitsUsed, raw)
	}
}

func TestEncodedBitsMatchesActual(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	syms := skewedSymbols(rng, 3000, 16)
	syms[0], syms[1] = 0, 15
	norm, _ := Normalize(histogram(syms, 16), 8)
	enc, _ := NewEncTable(norm, 8)
	var w ibits.Writer
	if err := enc.Encode(&w, syms); err != nil {
		t.Fatal(err)
	}
	// A sentinel bit marks where the stream ends inside its last byte.
	w.WriteBits(1, 1)
	b := w.Bytes()
	got := 8*(len(b)-1) + bits.Len8(b[len(b)-1]) - 1
	want := enc.EncodedBits(syms)
	if got != want {
		t.Errorf("actual %d bits != EncodedBits %d bits", got, want)
	}
}

// writtenBits returns how many bits Encode writes for symbols.
func writtenBits(t *testing.T, enc *EncTable, symbols []uint8) int {
	t.Helper()
	var w ibits.Writer
	if err := enc.Encode(&w, symbols); err != nil {
		t.Fatal(err)
	}
	w.WriteBits(1, 1) // sentinel, as in TestEncodedBitsMatchesActual
	b := w.Bytes()
	return 8*(len(b)-1) + bits.Len8(b[len(b)-1]) - 1
}

// tableFor builds an encode table that codes symbols. A stream of a single
// symbol gets a second symbol in its histogram, since Normalize refuses a
// one-symbol alphabet.
func tableFor(t *testing.T, symbols []uint8, alphabet, tableLog int) *EncTable {
	t.Helper()
	h := histogram(symbols, alphabet)
	h[(int(symbols[0])+1)%alphabet]++
	norm, err := Normalize(h, tableLog)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncTable(norm, tableLog)
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

// TestEncodedBits3MatchesOneByOne holds the interleaved three-stream walk to
// EncodedBits of each stream and to the bits Encode writes, over skewed,
// uniform, single-symbol and length-1 streams under different table logs.
func TestEncodedBits3MatchesOneByOne(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	uniform := func(n, alphabet int) []uint8 {
		out := make([]uint8, n)
		for i := range out {
			out[i] = uint8(rng.Intn(alphabet))
		}
		return out
	}
	single := func(n int, s uint8) []uint8 { return bytes.Repeat([]byte{s}, n) }
	cases := []struct {
		name    string
		streams [3][]uint8
	}{
		{"skewed", [3][]uint8{skewedSymbols(rng, 4000, 36), skewedSymbols(rng, 4000, 32), skewedSymbols(rng, 4000, 53)}},
		{"uniform", [3][]uint8{uniform(3000, 36), uniform(3000, 2), uniform(3000, 53)}},
		{"single-symbol", [3][]uint8{single(700, 0), single(700, 31), skewedSymbols(rng, 700, 20)}},
		{"length-1", [3][]uint8{{5}, {0}, {52}}},
		{"length-2", [3][]uint8{{5, 6}, {0, 0}, {52, 1}}},
		{"mixed-skew", [3][]uint8{single(500, 9), uniform(500, 53), skewedSymbols(rng, 500, 53)}},
	}
	for _, tc := range cases {
		for _, tls := range [][3]int{{6, 6, 6}, {9, 8, 9}, {7, 12, 8}} {
			var tabs [3]*EncTable
			var want [3]int
			for s, syms := range tc.streams {
				tabs[s] = tableFor(t, syms, 64, tls[s])
				want[s] = tabs[s].EncodedBits(syms)
				if got := writtenBits(t, tabs[s], syms); got != want[s] {
					t.Fatalf("%s %v stream %d: Encode wrote %d bits, EncodedBits says %d", tc.name, tls, s, got, want[s])
				}
			}
			a, b, c := EncodedBits3(tabs[0], tabs[1], tabs[2], tc.streams[0], tc.streams[1], tc.streams[2])
			if got := [3]int{a, b, c}; got != want {
				t.Errorf("%s %v: EncodedBits3 = %v, one by one %v", tc.name, tls, got, want)
			}
		}
	}
	// Unequal lengths are sized one by one.
	st := [3][]uint8{skewedSymbols(rng, 300, 16), skewedSymbols(rng, 200, 16), nil}
	ta, tb := tableFor(t, st[0], 16, 6), tableFor(t, st[1], 16, 6)
	a, b, c := EncodedBits3(ta, tb, ta, st[0], st[1], st[2])
	if a != ta.EncodedBits(st[0]) || b != tb.EncodedBits(st[1]) || c != 0 {
		t.Errorf("unequal lengths: EncodedBits3 = %d %d %d", a, b, c)
	}
	if a, b, c := EncodedBits3(ta, tb, ta, nil, nil, nil); a|b|c != 0 {
		t.Errorf("empty streams: EncodedBits3 = %d %d %d", a, b, c)
	}
}

func TestNearEntropyRate(t *testing.T) {
	// FSE should land within ~2% of the order-0 entropy for a static source
	// at adequate accuracy.
	rng := rand.New(rand.NewSource(5))
	probs := []float64{0.5, 0.25, 0.125, 0.0625, 0.0625}
	syms := make([]uint8, 50000)
	for i := range syms {
		u := rng.Float64()
		acc := 0.0
		for s, p := range probs {
			acc += p
			if u < acc {
				syms[i] = uint8(s)
				break
			}
		}
	}
	entropyBits := 0.0
	h := histogram(syms, len(probs))
	for _, c := range h {
		if c > 0 {
			p := float64(c) / float64(len(syms))
			entropyBits -= float64(c) * math.Log2(p)
		}
	}
	norm, _ := Normalize(h, 10)
	enc, _ := NewEncTable(norm, 10)
	got := float64(enc.EncodedBits(syms))
	if got > entropyBits*1.02 {
		t.Errorf("FSE rate %.0f bits vs entropy %.0f bits (>2%% excess)", got, entropyBits)
	}
}

func TestNormalizeSumsToTableSize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 50; trial++ {
		alphabet := 2 + rng.Intn(60)
		hist := make([]int, alphabet)
		nz := 0
		for i := range hist {
			if rng.Intn(3) > 0 {
				hist[i] = 1 + rng.Intn(10000)
				nz++
			}
		}
		if nz < 2 {
			hist[0], hist[1] = 5, 9
		}
		tableLog := 6 + rng.Intn(5)
		norm, err := Normalize(hist, tableLog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sum := 0
		for s, n := range norm {
			sum += n
			if hist[s] > 0 && n == 0 {
				t.Fatalf("trial %d: present symbol %d normalized to zero", trial, s)
			}
			if hist[s] == 0 && n != 0 {
				t.Fatalf("trial %d: absent symbol %d normalized to %d", trial, s, n)
			}
		}
		if sum != 1<<tableLog {
			t.Fatalf("trial %d: sum %d != %d", trial, sum, 1<<tableLog)
		}
	}
}

func TestNormalizeErrors(t *testing.T) {
	if _, err := Normalize([]int{0, 0}, 6); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty: %v", err)
	}
	if _, err := Normalize([]int{5, 0}, 6); !errors.Is(err, ErrSingleSymbol) {
		t.Errorf("single: %v", err)
	}
	if _, err := Normalize([]int{1, 2}, 2); !errors.Is(err, ErrBadTableLog) {
		t.Errorf("low tableLog: %v", err)
	}
	if _, err := Normalize([]int{1, 2}, 20); !errors.Is(err, ErrBadTableLog) {
		t.Errorf("high tableLog: %v", err)
	}
	if _, err := Normalize([]int{1, -1}, 6); err == nil {
		t.Error("negative count accepted")
	}
	big := make([]int, 100)
	for i := range big {
		big[i] = 1
	}
	if _, err := Normalize(big, 5); err == nil {
		t.Error("alphabet larger than table accepted")
	}
}

func TestTableConstructionRejectsBadNorm(t *testing.T) {
	bad := [][]int{
		{3, 3},      // sum != power of two for log 5
		{16, 16, 1}, // sum 33
		{32, 0, 0},  // single symbol
		{-1, 33},    // negative
	}
	for _, norm := range bad {
		if _, err := NewEncTable(norm, 5); err == nil {
			t.Errorf("EncTable accepted %v", norm)
		}
		if _, err := NewDecTable(norm, 5); err == nil {
			t.Errorf("DecTable accepted %v", norm)
		}
	}
	if _, err := NewEncTable([]int{16, 16}, 5); err != nil {
		t.Errorf("valid norm rejected: %v", err)
	}
}

func TestEncodeRejectsUncodedSymbol(t *testing.T) {
	enc, err := NewEncTable([]int{16, 16, 0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var w ibits.Writer
	if err := enc.Encode(&w, []uint8{0, 1, 2}); !errors.Is(err, ErrBadSymbol) {
		t.Errorf("want ErrBadSymbol, got %v", err)
	}
	if err := enc.Encode(&w, []uint8{0, 1, 9}); !errors.Is(err, ErrBadSymbol) {
		t.Errorf("out-of-alphabet trailing symbol: %v", err)
	}
	if err := enc.Encode(&w, nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("empty input: %v", err)
	}
}

func TestDecodeTruncatedStream(t *testing.T) {
	syms := []uint8{0, 1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1}
	norm, _ := Normalize(histogram(syms, 2), 5)
	enc, _ := NewEncTable(norm, 5)
	var w ibits.Writer
	_ = enc.Encode(&w, syms)
	full := w.Bytes()
	dec, _ := NewDecTable(norm, 5)
	if _, err := dec.Decode(ibits.NewReader(full[:0]), nil, len(syms)); err == nil {
		t.Error("empty stream decoded")
	}
}

func TestNormSerializationRoundTrip(t *testing.T) {
	norm := []int{10, 20, 2, 0, 0, 32}
	// pad to sum 64 for tableLog 6
	norm[0] = 64 - 20 - 2 - 32
	var w ibits.Writer
	if err := WriteNorm(&w, norm, 6); err != nil {
		t.Fatal(err)
	}
	got, tl, err := AppendReadNorm(nil, ibits.NewReader(w.Bytes()))
	if err != nil || tl != 6 {
		t.Fatalf("AppendReadNorm: %v (tl=%d)", err, tl)
	}
	for i, n := range norm {
		if got[i] != n {
			t.Fatalf("count %d: %d != %d", i, got[i], n)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64, n uint16, alphabetSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%2000 + 2
		alphabet := int(alphabetSel)%30 + 2
		syms := make([]uint8, size)
		for i := range syms {
			syms[i] = uint8(rng.Intn(alphabet))
		}
		syms[0], syms[size-1] = 0, uint8(alphabet-1)
		norm, err := Normalize(histogram(syms, alphabet), 8)
		if err != nil {
			return false
		}
		enc, err := NewEncTable(norm, 8)
		if err != nil {
			return false
		}
		var w ibits.Writer
		if enc.Encode(&w, syms) != nil {
			return false
		}
		dec, err := NewDecTable(norm, 8)
		if err != nil {
			return false
		}
		out, err := dec.Decode(ibits.NewReader(w.Bytes()), nil, size)
		return err == nil && bytes.Equal(out, syms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestDecTableEntries(t *testing.T) {
	dec, err := NewDecTable([]int{16, 16}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.entries) != 32 || dec.tableLog != 5 {
		t.Errorf("entries=%d tableLog=%d", len(dec.entries), dec.tableLog)
	}
}

// TestDecTableNextStatesInRange is why a lane needs no range check on its
// next state: over random normalized counts at table logs 5–12, every cell
// NewDecTable builds reads at most TableLog bits and can only move to a state
// inside the table, base + 2^nbBits ≤ 2^tableLog.
func TestDecTableNextStatesInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for tableLog := MinTableLog; tableLog <= MaxTableLog; tableLog++ {
		for trial := 0; trial < 40; trial++ {
			alphabet := 2 + rng.Intn(min(254, 1<<tableLog-1))
			hist := make([]int, alphabet)
			for i := range hist {
				if rng.Intn(4) > 0 {
					hist[i] = 1 + rng.Intn(1+rng.Intn(5000))
				}
			}
			hist[0], hist[alphabet-1] = hist[0]+1, hist[alphabet-1]+1
			norm, err := Normalize(hist, tableLog)
			if err != nil {
				t.Fatalf("log %d: Normalize: %v", tableLog, err)
			}
			dec, err := NewDecTable(norm, tableLog)
			if err != nil {
				t.Fatalf("log %d: NewDecTable: %v", tableLog, err)
			}
			if dec.TableLog() != tableLog || len(dec.Entries()) != 1<<tableLog {
				t.Fatalf("log %d: TableLog %d, %d entries", tableLog, dec.TableLog(), len(dec.Entries()))
			}
			for state, e := range dec.Entries() {
				if int(e.NbBits) > tableLog || int(e.Base)+1<<e.NbBits > 1<<tableLog {
					t.Fatalf("log %d, norm %v: state %d reads %d bits from base %d", tableLog, norm, state, e.NbBits, e.Base)
				}
			}
		}
	}
}
