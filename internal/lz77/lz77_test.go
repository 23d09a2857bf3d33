package lz77

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cdpu/internal/corpus"
)

func defaultConfig() Config {
	return Config{
		WindowSize:    64 << 10,
		TableEntries:  1 << 14,
		Associativity: 1,
		MinMatch:      4,
	}
}

func mustMatcher(t *testing.T, cfg Config) *Matcher {
	t.Helper()
	m, err := NewMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func roundTrip(t *testing.T, m *Matcher, src []byte) {
	t.Helper()
	seqs := m.Parse(src)
	if got := TotalLen(seqs); got != len(src) {
		t.Fatalf("parse covers %d of %d bytes", got, len(src))
	}
	lits := AppendLiteralsAt(nil, src, 0, seqs)
	out, err := AppendReconstruct(nil, seqs, lits, m.cfg.WindowSize)
	if err != nil {
		t.Fatalf("reconstruct: %v", err)
	}
	if !bytes.Equal(out, src) {
		t.Fatalf("round trip mismatch: %d vs %d bytes", len(out), len(src))
	}
	if end, err := VerifySeqs(src, 0, seqs, m.cfg.WindowSize); err != nil || end != len(src) {
		t.Fatalf("VerifySeqs on a parse that reconstructs: end %d of %d, %v", end, len(src), err)
	}
}

func TestRoundTripCorpora(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	for _, f := range corpus.SmallSuite() {
		t.Run(f.Name, func(t *testing.T) { roundTrip(t, m, f.Data) })
	}
}

func TestRoundTripEdgeInputs(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	inputs := [][]byte{
		nil,
		{},
		{1},
		{1, 2, 3},
		[]byte("abcd"),
		[]byte("aaaaaaaaaaaaaaaaaaaaaaaa"),
		[]byte("abcabcabcabcabcabcabcabc"),
		bytes.Repeat([]byte{0xff}, 100000),
	}
	for _, in := range inputs {
		roundTrip(t, m, in)
	}
}

func TestRoundTripAllConfigs(t *testing.T) {
	data := corpus.Generate(corpus.Log, 96<<10, 5)
	for _, window := range []int{2 << 10, 8 << 10, 64 << 10} {
		for _, entries := range []int{1 << 9, 1 << 14} {
			for _, assoc := range []int{1, 2, 4} {
				for _, h := range []HashFunc{HashFibonacci, HashXorShift, HashTrivial} {
					for _, c := range []TableContents{ContentsOffsetOnly, ContentsOffsetAndTag} {
						cfg := Config{
							WindowSize: window, TableEntries: entries,
							Associativity: assoc, MinMatch: 4,
							Hash: h, Contents: c,
						}
						m := mustMatcher(t, cfg)
						roundTrip(t, m, data)
						if s := m.Stats(); s.MaxOffset > window {
							t.Fatalf("cfg %+v: offset %d beyond window %d", cfg, s.MaxOffset, window)
						}
					}
				}
			}
		}
	}
}

func TestRoundTripOptions(t *testing.T) {
	data := corpus.Generate(corpus.Text, 64<<10, 9)
	for _, lazy := range []bool{false, true} {
		for _, skip := range []bool{false, true} {
			for _, minMatch := range []int{3, 4} {
				cfg := defaultConfig()
				cfg.Lazy = lazy
				cfg.SkipIncompressible = skip
				cfg.MinMatch = minMatch
				cfg.MaxMatch = 1 << 10
				roundTrip(t, mustMatcher(t, cfg), data)
			}
		}
	}
}

func TestMaxMatchRespected(t *testing.T) {
	cfg := defaultConfig()
	cfg.MaxMatch = 64
	m := mustMatcher(t, cfg)
	src := bytes.Repeat([]byte("abcdefgh"), 4<<10)
	seqs := m.Parse(src)
	for _, s := range seqs {
		if s.MatchLen > 64 {
			t.Fatalf("match length %d exceeds MaxMatch", s.MatchLen)
		}
	}
	roundTrip(t, m, src)
}

func TestWindowLimitsOffsets(t *testing.T) {
	// Data with its only redundancy 32 KiB apart: a small window must find
	// no matches, a large one must.
	block := corpus.Generate(corpus.Random, 32<<10, 3)
	src := append(append([]byte{}, block...), block...)

	small := defaultConfig()
	small.WindowSize = 4 << 10
	ms := mustMatcher(t, small)
	ms.Parse(src)
	if got := ms.Stats().MatchBytes; got > len(src)/16 {
		t.Errorf("small window found %d match bytes in distant-redundancy data", got)
	}

	large := defaultConfig()
	ml := mustMatcher(t, large)
	ml.Parse(src)
	if got := ml.Stats().MatchBytes; got < len(block)/2 {
		t.Errorf("large window found only %d match bytes, want ~%d", got, len(block))
	}
}

func TestLargerWindowNeverWorse(t *testing.T) {
	data := corpus.Generate(corpus.Log, 256<<10, 8)
	prev := -1
	for _, w := range []int{2 << 10, 8 << 10, 32 << 10, 128 << 10} {
		cfg := defaultConfig()
		cfg.WindowSize = w
		cfg.TableEntries = 1 << 15
		cfg.Associativity = 4
		m := mustMatcher(t, cfg)
		m.Parse(data)
		mb := m.Stats().MatchBytes
		if prev >= 0 && mb < prev*95/100 {
			t.Errorf("window %d found %d match bytes, notably worse than smaller window's %d", w, mb, prev)
		}
		prev = mb
	}
}

func TestAssociativityImprovesMatches(t *testing.T) {
	// With a tiny table, collisions destroy candidates; associativity should
	// recover some match coverage.
	data := corpus.Generate(corpus.Text, 128<<10, 4)
	results := map[int]int{}
	for _, assoc := range []int{1, 4} {
		cfg := defaultConfig()
		cfg.TableEntries = 1 << 8
		cfg.Associativity = assoc
		m := mustMatcher(t, cfg)
		m.Parse(data)
		results[assoc] = m.Stats().MatchBytes
	}
	if results[4] < results[1] {
		t.Errorf("assoc=4 found %d match bytes < assoc=1's %d", results[4], results[1])
	}
}

func TestTagFilterReducesFalseProbes(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 128<<10, 4)
	var falseByContents [2]int
	for i, c := range []TableContents{ContentsOffsetOnly, ContentsOffsetAndTag} {
		cfg := defaultConfig()
		cfg.TableEntries = 1 << 8 // force collisions
		cfg.Contents = c
		m := mustMatcher(t, cfg)
		m.Parse(data)
		falseByContents[i] = m.Stats().FalseProbes
	}
	if falseByContents[1] > falseByContents[0] {
		t.Errorf("tagged table has more false probes (%d) than untagged (%d)",
			falseByContents[1], falseByContents[0])
	}
}

func TestSkippingReducesProbesOnNoise(t *testing.T) {
	noise := corpus.Generate(corpus.Random, 256<<10, 6)
	probes := map[bool]int{}
	for _, skip := range []bool{false, true} {
		cfg := defaultConfig()
		cfg.SkipIncompressible = skip
		m := mustMatcher(t, cfg)
		m.Parse(noise)
		probes[skip] = m.Stats().Probes
	}
	if probes[true]*2 > probes[false] {
		t.Errorf("skipping barely helped: %d vs %d probes", probes[true], probes[false])
	}
}

func TestStatsAccounting(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	data := corpus.Generate(corpus.Log, 64<<10, 2)
	m.Parse(data)
	s := m.Stats()
	if s.LiteralBytes+s.MatchBytes != len(data) {
		t.Errorf("literal %d + match %d != input %d", s.LiteralBytes, s.MatchBytes, len(data))
	}
	if s.Matches == 0 || s.Probes == 0 {
		t.Errorf("no matcher activity recorded: %+v", s)
	}
}

func TestReconstructRejectsBadOffset(t *testing.T) {
	_, err := AppendReconstruct(nil, []Seq{{LitLen: 1, Offset: 5, MatchLen: 3}}, []byte{'x'}, 0)
	if err == nil {
		t.Fatal("offset beyond produced output accepted")
	}
	_, err = AppendReconstruct(nil, []Seq{{LitLen: 4, Offset: 4, MatchLen: 2}}, []byte("abcd"), 2)
	if err == nil {
		t.Fatal("offset beyond window accepted")
	}
}

func TestReconstructRejectsShortLiterals(t *testing.T) {
	_, err := AppendReconstruct(nil, []Seq{{LitLen: 10}}, []byte("abc"), 0)
	if err == nil {
		t.Fatal("literal overrun accepted")
	}
}

func TestReconstructOverlappingCopy(t *testing.T) {
	// "ab" then copy 6 from offset 2 => "abababab"
	out, err := AppendReconstruct(nil, []Seq{{LitLen: 2, Offset: 2, MatchLen: 6}}, []byte("ab"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "abababab" {
		t.Fatalf("overlap copy = %q", out)
	}
}

// TestAppendCopyMatchesByteLoop holds AppendCopy to the byte-at-a-time loop it
// replaced, over overlapping and disjoint copies, into buffers with exactly
// the capacity they hold and with room to spare.
func TestAppendCopyMatchesByteLoop(t *testing.T) {
	base := corpus.Generate(corpus.Random, 5000, 12)
	lengths := []int{1000}
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	for _, offset := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 4097} {
		for _, n := range lengths {
			want := append([]byte{}, base...)
			for k, from := 0, len(want)-offset; k < n; k++ {
				want = append(want, want[from+k])
			}
			for _, spare := range []int{0, 2048} {
				out := make([]byte, len(base), len(base)+spare)
				copy(out, base)
				if out = AppendCopy(out, offset, n); !bytes.Equal(out, want) {
					t.Fatalf("AppendCopy(offset %d, n %d, spare %d) differs from the byte loop", offset, n, spare)
				}
			}
		}
	}
}

// TestRoundTripRepeats replays parses that are almost all overlapping copies,
// at periods below, at and above AppendCopy's chunk doubling.
func TestRoundTripRepeats(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	for _, unit := range []string{"a", "ab", "abc", "abcdefg", "0123456789abcdef!"} {
		roundTrip(t, m, bytes.Repeat([]byte(unit), 3000/len(unit)))
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{WindowSize: 3, TableEntries: 16, Associativity: 1, MinMatch: 4},
		{WindowSize: 0, TableEntries: 16, Associativity: 1, MinMatch: 4},
		{WindowSize: 1024, TableEntries: 10, Associativity: 1, MinMatch: 4},
		{WindowSize: 1024, TableEntries: 16, Associativity: 0, MinMatch: 4},
		{WindowSize: 1024, TableEntries: 16, Associativity: 99, MinMatch: 4},
		{WindowSize: 1024, TableEntries: 16, Associativity: 1, MinMatch: 2},
		{WindowSize: 1024, TableEntries: 16, Associativity: 1, MinMatch: 4, MaxMatch: 3},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, cfg)
		}
	}
	good := defaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestParseRandomizedProperty(t *testing.T) {
	m := mustMatcher(t, defaultConfig())
	f := func(seed int64, sizeSel uint16, repeatSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(sizeSel) % 8192
		unit := 1 + int(repeatSel)%64
		src := make([]byte, size)
		for i := range src {
			if i >= unit && rng.Intn(3) > 0 {
				src[i] = src[i-unit]
			} else {
				src[i] = byte(rng.Intn(8))
			}
		}
		seqs := m.Parse(src)
		if TotalLen(seqs) != len(src) {
			return false
		}
		out, err := AppendReconstruct(nil, seqs, AppendLiteralsAt(nil, src, 0, seqs), m.cfg.WindowSize)
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHashFuncStrings(t *testing.T) {
	if HashFibonacci.String() != "fibonacci" || HashXorShift.String() != "xorshift" ||
		HashTrivial.String() != "trivial" {
		t.Error("hash function names wrong")
	}
	if ContentsOffsetOnly.String() != "offset" || ContentsOffsetAndTag.String() != "offset+tag" {
		t.Error("table contents names wrong")
	}
}

// TestMatchLenWordCompare cross-checks the 8-byte-compare matchLen against a
// byte-at-a-time reference over randomized divergence points.
func TestMatchLenWordCompare(t *testing.T) {
	ref := func(src []byte, a, b, maxLen int) int {
		n := 0
		for b+n < len(src) && n < maxLen && src[a+n] == src[b+n] {
			n++
		}
		return n
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		n := 16 + rng.Intn(256)
		src := make([]byte, n)
		for i := range src {
			src[i] = byte(rng.Intn(3)) // low alphabet: long common prefixes
		}
		b := 1 + rng.Intn(n-1)
		a := rng.Intn(b)
		maxLen := rng.Intn(n + 8)
		if got, want := matchLen(src, a, b, maxLen), ref(src, a, b, maxLen); got != want {
			t.Fatalf("matchLen(a=%d,b=%d,max=%d) = %d, want %d (src=%v)", a, b, maxLen, got, want, src)
		}
	}
}

// zstd3Config is the two-way, tagged, lazy shape ZStd level 3 parses with:
// walkPair's.
func zstd3Config() Config {
	return Config{
		WindowSize: 1 << 17, TableEntries: 1 << 15, Associativity: 2, MinMatch: 4,
		Contents: ContentsOffsetAndTag, Lazy: true,
	}
}

// zstd12Config is the four-way shape ZStd levels 10 to 15 parse with, one of
// those walkAssoc is left with.
func zstd12Config() Config {
	cfg := zstd3Config()
	cfg.TableEntries, cfg.Associativity = 1<<16, 4
	return cfg
}

// TestParseReusesSeqBuffer asserts the buffer-reuse contract on the three
// walks: steady-state Parse calls allocate nothing.
func TestParseReusesSeqBuffer(t *testing.T) {
	src := corpus.Generate(corpus.Log, 64<<10, 5)
	for _, cfg := range []Config{defaultConfig(), zstd3Config(), zstd12Config()} {
		m := mustMatcher(t, cfg)
		m.Parse(src) // warm the seq buffer
		allocs := testing.AllocsPerRun(10, func() {
			if seqs := m.Parse(src); len(seqs) == 0 {
				t.Fatal("empty parse")
			}
		})
		if allocs != 0 {
			t.Errorf("%+v: steady-state Parse allocates %.1f objects/op, want 0", cfg, allocs)
		}
	}
}

// BenchmarkLZ77MatchLen measures the match-extension kernel on long matches,
// the compressor's per-byte hot loop.
func BenchmarkLZ77MatchLen(b *testing.B) {
	src := bytes.Repeat([]byte("abcdefghijklmnop"), 8<<10) // 128 KiB, fully periodic
	b.SetBytes(int64(len(src) / 2))
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += matchLen(src, 0, len(src)/2, len(src))
	}
	_ = total
}

// BenchmarkLZ77Parse measures whole parses as config/kind/size sub-benchmarks:
// the hardware shape at the sweeps' largest history and at their smallest
// (hw-2K, where the window is shorter than every input),
// the software Snappy shape (the same table, skipping on), ZStd-3's two-way
// tagged lazy shape and ZStd-12's four-way one — three shapes on walkDirect,
// one on walkPair, one on walkAssoc — each over the six replay payload kinds
// (sim's payloadKinds), among them false-probe-heavy protobuf, and
// incompressible data. The size axis is there because one size describes one
// regime: at 4 KiB and 16 KiB (the replays' payloads) nearly every table
// entry a parse meets is stale, at 64 KiB zstd-3's 64 K entries stay half
// stale for the whole parse and the epoch test is a coin flip, and at 1 MiB
// (codec-sw's large buffers) the table is live.
func BenchmarkLZ77Parse(b *testing.B) {
	snappySW, hw2K := defaultConfig(), defaultConfig()
	snappySW.SkipIncompressible = true
	hw2K.WindowSize = 2 << 10
	configs := []struct {
		name string
		cfg  Config
	}{{"hw", defaultConfig()}, {"hw-2K", hw2K}, {"snappy-sw", snappySW}, {"zstd-3", zstd3Config()}, {"zstd-12", zstd12Config()}}
	sizes := []struct {
		name string
		n    int
	}{{"4K", 4 << 10}, {"16K", 16 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Table, corpus.HTML, corpus.Random} {
				b.Run(kind.String(), func(b *testing.B) {
					for _, size := range sizes {
						b.Run(size.name, func(b *testing.B) {
							m, err := NewMatcher(c.cfg)
							if err != nil {
								b.Fatal(err)
							}
							src := corpus.Generate(kind, size.n, 6)
							b.SetBytes(int64(len(src)))
							b.ReportAllocs()
							b.ResetTimer()
							for i := 0; i < b.N; i++ {
								m.Parse(src)
							}
						})
					}
				})
			}
		})
	}
}

// BenchmarkLZ77Reconstruct measures the decoder half: replaying a parse of
// mixed data (matches averaging a few bytes) against its literal stream, by
// appending (AppendReconstruct) and into an owned buffer (Replay).
func BenchmarkLZ77Reconstruct(b *testing.B) {
	m, err := NewMatcher(defaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var src []byte
	var gen corpus.Gen
	for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf} {
		src = gen.AppendGenerate(src, kind, 64<<10, 6)
	}
	seqs := m.Parse(src)
	lits := AppendLiteralsAt(nil, src, 0, seqs)
	b.Run("AppendReconstruct", func(b *testing.B) {
		out := make([]byte, 0, len(src))
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if out, err = AppendReconstruct(out[:0], seqs, lits, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Replay", func(b *testing.B) {
		out := make([]byte, len(src)+Slack)
		b.SetBytes(int64(len(src)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err = Replay(out, 0, len(src), seqs, lits, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}
