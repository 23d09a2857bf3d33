package lz77

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"cdpu/internal/corpus"
)

// This file is the differential tests' reference parser: the per-position
// walk as it stood before the parse kernels were specialized, kept verbatim
// beside the production Matcher as an independent implementation. It recomputes
// key and hash in probe and again in insert, re-measures the winning match in
// ParsePrefixed, and bumps the statistics through the receiver one event at a
// time, so a parse whose Seqs and Stats equal this one's proves the kernels in
// lz77.go changed how fast the walk runs and nothing it produces. Only the
// receiver type (and load32's name) differs from the code it was moved from.

// refMatcher is the pre-kernel Matcher.
type refMatcher struct {
	cfg   Config
	table []uint32 // TableEntries * Associativity encoded positions
	tags  []uint8  // parallel tags when ContentsOffsetAndTag
	shift uint     // hash shift for fibonacci/xorshift
	stats Stats
	seqs  []Seq  // parse output buffer, reused across calls
	epoch uint32 // encoding base for the current parse; entries below it are stale
	next  uint32 // epoch for the next parse (current epoch + this parse's reach)
}

func newRefMatcher(cfg Config) (*refMatcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &refMatcher{cfg: cfg, next: 1}
	m.table = make([]uint32, cfg.TableEntries*cfg.Associativity)
	if cfg.Contents == ContentsOffsetAndTag {
		m.tags = make([]uint8, len(m.table))
	}
	bitsN := 0
	for e := cfg.TableEntries; e > 1; e >>= 1 {
		bitsN++
	}
	m.shift = uint(32 - bitsN)
	return m, nil
}

func (m *refMatcher) hash(v uint32) (idx uint32, tag uint8) {
	switch m.cfg.Hash {
	case HashFibonacci:
		h := v * 0x9E3779B1 // 2^32 / golden ratio
		return h >> m.shift, uint8(h >> 8)
	case HashXorShift:
		h := v
		h ^= h >> 15
		h *= 0x85EBCA77
		h ^= h >> 13
		return h >> m.shift, uint8(h)
	default: // HashTrivial
		return v & uint32(m.cfg.TableEntries-1), uint8(v >> 16)
	}
}

func refLoad32(src []byte, i int) uint32 {
	return uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16 | uint32(src[i+3])<<24
}

// key returns the MinMatch-byte hash key at position i, folded into 32 bits.
// For MinMatch 3 only three bytes are read, so positions near the end of the
// input remain addressable.
func (m *refMatcher) key(src []byte, i int) uint32 {
	if m.cfg.MinMatch == 3 {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return v * 0x01E35A7D // spread 3-byte keys before the main hash
	}
	return refLoad32(src, i)
}

// ParsePrefixed parses src[start:] using src[:start] as pre-existing history
// (a preset dictionary, or the already-emitted part of a stream). The
// returned sequences cover exactly src[start:]; their offsets may reach into
// the prefix, up to the configured window. The slice is owned by the Matcher
// and reused by the next Parse/ParsePrefixed call.
func (m *refMatcher) ParsePrefixed(src []byte, start int) []Seq {
	if start < 0 || start > len(src) {
		panic("lz77: ParsePrefixed start out of range")
	}
	// Start a fresh epoch instead of clearing the table (see Matcher doc).
	if m.next > ^uint32(0)-uint32(len(src))-1 {
		clear(m.table)
		m.next = 1
	}
	m.epoch = m.next
	m.next += uint32(len(src))
	seqs := m.seqs[:0]
	defer func() { m.seqs = seqs }()
	n := len(src)
	if n-start < m.cfg.MinMatch {
		if n-start > 0 {
			seqs = append(seqs, Seq{LitLen: n - start})
			m.stats.LiteralBytes += n - start
		}
		return seqs
	}
	// Index the prefix so parsing can match into it. Every other position
	// keeps the cost linear while leaving the table warm, the same policy
	// used inside matches.
	prefixFrom := 0
	if start > m.cfg.WindowSize {
		prefixFrom = start - m.cfg.WindowSize
	}
	for j := prefixFrom; j < start; j += 2 {
		m.insert(src, j)
	}

	litStart := start
	i := start
	skip := 32 // software skipping accumulator (used when SkipIncompressible)
	limit := n - m.cfg.MinMatch
	for i <= limit {
		m.stats.Positions++
		cand, ok := m.probe(src, i)
		if !ok {
			m.insert(src, i)
			if m.cfg.SkipIncompressible {
				i += skip >> 5
				skip++
			} else {
				i++
			}
			continue
		}
		skip = 32
		if m.cfg.Lazy && i+1 <= limit {
			// Peek one position ahead; prefer a strictly longer match there.
			candLen := m.extent(src, cand, i)
			m.insert(src, i)
			cand2, ok2 := m.probe(src, i+1)
			if ok2 {
				if m.extent(src, cand2, i+1) > candLen {
					i++
					cand = cand2
				}
			}
		} else {
			m.insert(src, i)
		}
		length := m.extent(src, cand, i)
		offset := i - cand
		seqs = append(seqs, Seq{LitLen: i - litStart, Offset: offset, MatchLen: length})
		m.stats.Matches++
		m.stats.MatchBytes += length
		m.stats.LiteralBytes += i - litStart
		if offset > m.stats.MaxOffset {
			m.stats.MaxOffset = offset
		}
		// Index a sparse set of positions inside the match so later data can
		// still find this region (one insert every 2 bytes keeps the table
		// warm without quadratic work).
		end := i + length
		for j := i + 1; j < end && j <= limit; j += 2 {
			m.insert(src, j)
		}
		i = end
		litStart = i
	}
	if litStart < n {
		seqs = append(seqs, Seq{LitLen: n - litStart})
		m.stats.LiteralBytes += n - litStart
	}
	return seqs
}

// extent measures the match length between cand and i, honoring MaxMatch.
func (m *refMatcher) extent(src []byte, cand, i int) int {
	maxLen := len(src) - i
	if m.cfg.MaxMatch != 0 && m.cfg.MaxMatch < maxLen {
		maxLen = m.cfg.MaxMatch
	}
	return matchLen(src, cand, i, maxLen)
}

// probe looks up position i's key and returns the best verified candidate
// within the window, preferring the longest match (ties to smaller offset).
func (m *refMatcher) probe(src []byte, i int) (int, bool) {
	key := m.key(src, i)
	idx, tag := m.hash(key)
	assoc := m.cfg.Associativity
	base := int(idx) * assoc
	m.stats.Probes++
	bestLen, bestPos := 0, -1
	for w := 0; w < assoc; w++ {
		pos := m.table[base+w]
		if pos < m.epoch {
			continue // empty, or left over from an earlier parse
		}
		if m.tags != nil && m.tags[base+w] != tag {
			m.stats.TagFiltered++
			continue
		}
		m.stats.WaysChecked++
		p := int(pos - m.epoch)
		if p >= i || i-p > m.cfg.WindowSize {
			continue
		}
		// Cheap reject before the full extension: a candidate displaces the
		// incumbent only by being strictly longer, or equal-length at a
		// larger position. If the bytes at the incumbent's length already
		// differ, the candidate cannot be longer; losing the position tie
		// too means it cannot win, so the extension's outcome is irrelevant.
		if p < bestPos && i+bestLen < len(src) && src[p+bestLen] != src[i+bestLen] {
			continue
		}
		l := m.extent(src, p, i)
		if l < m.cfg.MinMatch {
			m.stats.FalseProbes++
			continue
		}
		if l > bestLen || (l == bestLen && p > bestPos) {
			bestLen, bestPos = l, p
		}
	}
	if bestLen >= m.cfg.MinMatch {
		return bestPos, true
	}
	return -1, false
}

// insert records position i in the table, evicting FIFO within the bucket.
func (m *refMatcher) insert(src []byte, i int) {
	if i+m.cfg.MinMatch > len(src) {
		return
	}
	key := m.key(src, i)
	idx, tag := m.hash(key)
	assoc := m.cfg.Associativity
	base := int(idx) * assoc
	// FIFO shift within the bucket. Specialized on the tag array so typical
	// low-associativity tables shift with register moves, not memmove calls.
	if m.tags != nil {
		for w := assoc - 1; w > 0; w-- {
			m.table[base+w] = m.table[base+w-1]
			m.tags[base+w] = m.tags[base+w-1]
		}
		m.table[base] = uint32(i) + m.epoch
		m.tags[base] = tag
		return
	}
	for w := assoc - 1; w > 0; w-- {
		m.table[base+w] = m.table[base+w-1]
	}
	m.table[base] = uint32(i) + m.epoch
}

// diffInputs are the differential test's payloads: every corpus kind, a
// low-alphabet noise whose buckets collide and whose matches tie, one text
// that outgrows the largest window, and the inputs at and below the parser's
// edges.
func diffInputs() [][]byte {
	const size = 6 << 10
	var inputs [][]byte
	for _, k := range corpus.Kinds {
		inputs = append(inputs, corpus.Generate(k, size, 21))
	}
	rng := rand.New(rand.NewSource(22))
	noise := make([]byte, size)
	for i := range noise {
		if i >= 37 && rng.Intn(3) > 0 {
			noise[i] = noise[i-37]
		} else {
			noise[i] = byte(rng.Intn(4))
		}
	}
	// The 6 KiB inputs fit in every window but the smallest, so only the
	// 1 KiB one ever rejects a far candidate. This one's last 6 KiB repeat its
	// first from 66 KiB back, past every window of the matrix.
	far := corpus.Generate(corpus.Text, 72<<10, 24)
	copy(far[66<<10:], far[:size])
	return append(inputs, noise, far, []byte("abc"), bytes.Repeat([]byte("abcabcd"), size/7), nil)
}

// walkOf names the walk NewMatcher picked for m.
func walkOf(m *Matcher) string {
	switch {
	case m.direct:
		return "direct"
	case m.pairs != nil:
		return "pair"
	default:
		return "assoc"
	}
}

// TestWalkSelection pins which shapes leave walkAssoc, and that a Matcher
// allocates the storage of its own walk only.
func TestWalkSelection(t *testing.T) {
	pair := zstd3Config()
	for _, tc := range []struct {
		name string
		set  func(*Config)
		want string
	}{
		{"hardware default", func(c *Config) { *c = defaultConfig() }, "direct"},
		{"zstd-3", func(*Config) {}, "pair"},
		{"greedy", func(c *Config) { c.Lazy = false }, "pair"},
		{"capped", func(c *Config) { c.MaxMatch = 64 }, "pair"},
		{"skipping", func(c *Config) { c.SkipIncompressible = true }, "assoc"},
		{"one way", func(c *Config) { c.Associativity = 1 }, "assoc"},
		{"four ways", func(c *Config) { c.Associativity = 4 }, "assoc"},
		{"untagged", func(c *Config) { c.Contents = ContentsOffsetOnly }, "assoc"},
		{"xorshift", func(c *Config) { c.Hash = HashXorShift }, "assoc"},
		{"3-byte key", func(c *Config) { c.MinMatch = 3 }, "assoc"},
		{"6-byte minimum", func(c *Config) { c.MinMatch = 6 }, "assoc"},
	} {
		cfg := pair
		tc.set(&cfg)
		m := mustMatcher(t, cfg)
		if got := walkOf(m); got != tc.want {
			t.Errorf("%s: %s walk, want %s", tc.name, got, tc.want)
		}
		pairs, table, tags := 0, cfg.TableEntries*cfg.Associativity, 0
		if cfg.Contents == ContentsOffsetAndTag {
			tags = table
		}
		if tc.want == "pair" {
			pairs, table, tags = cfg.TableEntries*pairBytes, 0, 0
		}
		if len(m.pairs)*pairBytes != pairs || len(m.table) != table || len(m.tags) != tags {
			t.Errorf("%s: %d bytes of pairs, %d table words, %d tags; want %d, %d, %d",
				tc.name, len(m.pairs)*pairBytes, len(m.table), len(m.tags), pairs, table, tags)
		}
	}
}

// TestParseMatchesReference holds the parse kernels to the reference parser:
// over the configuration matrix below, on every input, plain and prefixed,
// the Seqs are deep-equal and the accumulated Stats are ==. Each
// configuration's matcher pair is reused from input to input, so every parse
// but the first runs over a table full of stale epochs; the input order
// rotates with the configuration so each input also meets a fresh table. The
// matrix has to reach walkDirect, walkAssoc, and walkPair greedy and lazy
// (under the 1 KiB window the inputs outgrow); the cleanup counts.
func TestParseMatchesReference(t *testing.T) {
	inputs := diffInputs()
	var direct, assocN, pairGreedy, pairLazy atomic.Int32
	t.Cleanup(func() {
		if direct.Load() == 0 || assocN.Load() == 0 || pairGreedy.Load() == 0 || pairLazy.Load() == 0 {
			t.Errorf("configurations per walk: direct %d, assoc %d, pair %d greedy and %d lazy; want every one reached",
				direct.Load(), assocN.Load(), pairGreedy.Load(), pairLazy.Load())
		}
	})
	type option struct {
		name string
		set  func(*Config)
	}
	options := []option{
		{"plain", func(*Config) {}},
		{"lazy", func(c *Config) { c.Lazy = true }},
		{"skip", func(c *Config) { c.SkipIncompressible = true }},
		{"max64", func(c *Config) { c.MaxMatch = 64 }},
	}
	for _, window := range []int{1 << 10, 8 << 10, 64 << 10} {
		for _, entries := range []int{1 << 9, 1 << 14} {
			t.Run(fmt.Sprintf("w%d/e%d", window, entries), func(t *testing.T) {
				t.Parallel()
				nth := 0
				for _, assoc := range []int{1, 2, 4} {
					for _, h := range []HashFunc{HashFibonacci, HashXorShift, HashTrivial} {
						for _, c := range []TableContents{ContentsOffsetOnly, ContentsOffsetAndTag} {
							for _, minMatch := range []int{3, 4, 6} {
								for _, opt := range options {
									cfg := Config{
										WindowSize: window, TableEntries: entries, Associativity: assoc,
										MinMatch: minMatch, Hash: h, Contents: c,
									}
									opt.set(&cfg)
									switch walk := diffConfig(t, cfg, opt.name, inputs, nth); {
									case walk == "direct":
										direct.Add(1)
									case walk == "assoc":
										assocN.Add(1)
									case cfg.Lazy:
										pairLazy.Add(1)
									default:
										pairGreedy.Add(1)
									}
									nth++
								}
							}
						}
					}
				}
			})
		}
	}
}

// diffConfig runs one configuration's matcher pair over inputs, starting at
// the first-th, and names the walk that ran.
func diffConfig(t *testing.T, cfg Config, name string, inputs [][]byte, first int) string {
	t.Helper()
	m := mustMatcher(t, cfg)
	ref, err := newRefMatcher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k := range inputs {
		in := inputs[(first+k)%len(inputs)]
		for _, start := range []int{0, len(in) / 3} {
			got, want := m.ParsePrefixed(in, start), ref.ParsePrefixed(in, start)
			if !slices.Equal(got, want) {
				t.Fatalf("%s %+v: input %d start %d: Seqs differ from the reference (%d vs %d sequences)",
					name, cfg, (first+k)%len(inputs), start, len(got), len(want))
			}
			if m.Stats() != ref.stats {
				t.Fatalf("%s %+v: input %d start %d: Stats\n got %+v\nwant %+v",
					name, cfg, (first+k)%len(inputs), start, m.Stats(), ref.stats)
			}
		}
	}
	return walkOf(m)
}

// TestParseMatchesReferenceAcrossEpochWrap drives the three walks through the
// one physical clear of their storage: the parse whose reach would wrap the
// 32-bit encoding. An entry that survived it would decode far past the input
// and be counted as a way checked.
func TestParseMatchesReferenceAcrossEpochWrap(t *testing.T) {
	in := corpus.Generate(corpus.Log, 8<<10, 23)
	greedy := defaultConfig()
	greedy.Associativity, greedy.Contents = 2, ContentsOffsetAndTag
	lazy, four := greedy, greedy
	lazy.Lazy, four.Associativity = true, 4
	for i, cfg := range []Config{defaultConfig(), greedy, lazy, four} {
		m := mustMatcher(t, cfg)
		if want := []string{"direct", "pair", "pair", "assoc"}[i]; walkOf(m) != want {
			t.Fatalf("%+v: %s walk, want %s", cfg, walkOf(m), want)
		}
		ref, err := newRefMatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		m.next = ^uint32(0) - uint32(2*len(in)) - 8
		ref.next = m.next
		for pass := 0; pass < 4; pass++ {
			if got, want := m.Parse(in), ref.ParsePrefixed(in, 0); !slices.Equal(got, want) {
				t.Fatalf("%+v pass %d: Seqs differ from the reference", cfg, pass)
			}
			if m.Stats() != ref.stats || m.next != ref.next {
				t.Fatalf("%+v pass %d: Stats %+v next %d, want %+v next %d", cfg, pass, m.Stats(), m.next, ref.stats, ref.next)
			}
		}
	}
}

// fuzzConfig decodes a valid Config from sixteen bits: window 2^10–2^17
// (bits 0–2), entries 2^9–2^16 (3–5), associativity 1, 2 or 4 (6–7), hash
// (8–9), contents (10), MinMatch 3, 4 or 6 (11–12), lazy (13), skipping (14)
// and MaxMatch 64 or unlimited (15). Every walk is reachable.
func fuzzConfig(knobs uint16) Config {
	cfg := Config{
		WindowSize:         1 << (10 + knobs&7),
		TableEntries:       1 << (9 + knobs>>3&7),
		Associativity:      []int{1, 2, 4}[knobs>>6&3%3],
		Hash:               HashFunc(knobs >> 8 & 3 % 3),
		Contents:           TableContents(knobs >> 10 & 1),
		MinMatch:           []int{3, 4, 6}[knobs>>11&3%3],
		Lazy:               knobs>>13&1 == 1,
		SkipIncompressible: knobs>>14&1 == 1,
	}
	if knobs>>15 == 1 {
		cfg.MaxMatch = 64
	}
	return cfg
}

// FuzzParseMatchesReference is TestParseMatchesReference on configurations
// and inputs decoded from the fuzzer's arguments: one matcher pair under
// fuzzConfig(knobs) parses a, then b, each plain and then prefixed at cut
// (mod the input's length + 1), so the second input meets a table full of the
// first's stale epochs. Seqs must be deep-equal and Stats == after every
// parse.
func FuzzParseMatchesReference(f *testing.F) {
	text := corpus.Generate(corpus.Text, 1200, 5)
	log := corpus.Generate(corpus.Log, 1200, 6)
	f.Add(uint16(0), uint16(0), []byte{}, []byte("abc"))
	f.Add(uint16(1<<11|5<<3|3), uint16(400), text, log)                              // walkDirect
	f.Add(uint16(1<<14|1<<11|3<<3), uint16(0), log, text)                            // walkDirect, skipping
	f.Add(uint16(1<<13|1<<11|1<<10|1<<6|2), uint16(900), text, text)                 // walkPair, lazy
	f.Add(uint16(1<<15|1<<11|1<<10|1<<6|7<<3), uint16(9), log, log[:500])            // walkPair, greedy, capped
	f.Add(uint16(1<<13|2<<11|1<<10|1<<8|2<<6), uint16(64), text, log)                // walkAssoc: four ways, xorshift, 6-byte minimum
	f.Add(uint16(2<<8|1<<6), uint16(33), bytes.Repeat([]byte("abcabcd"), 300), text) // walkAssoc: trivial hash, 3-byte key
	f.Fuzz(func(t *testing.T, knobs, cut uint16, a, b []byte) {
		cfg := fuzzConfig(knobs)
		m := mustMatcher(t, cfg)
		ref, err := newRefMatcher(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n, in := range [][]byte{a, b} {
			for _, start := range []int{0, int(cut) % (len(in) + 1)} {
				got, want := m.ParsePrefixed(in, start), ref.ParsePrefixed(in, start)
				if !slices.Equal(got, want) {
					t.Fatalf("%+v (%s walk): input %d start %d: Seqs\n got %v\nwant %v", cfg, walkOf(m), n, start, got, want)
				}
				if m.Stats() != ref.stats {
					t.Fatalf("%+v (%s walk): input %d start %d: Stats\n got %+v\nwant %+v", cfg, walkOf(m), n, start, m.Stats(), ref.stats)
				}
			}
		}
	})
}

// VerifySeqs is the in-place plan check as it stood before core fused it with
// the timing fold (core's verifyFold), kept as the reference its sentinels and
// messages are held to; the tests here use it to show a parse reconstructs.
// VerifySeqs proves, without producing a byte, that replaying seqs from
// position start rebuilds content[start:end] and returns end: the decoder's
// checks on each copy (0 < offset ≤ position, offset ≤ window unless window is
// 0) plus content[pos:pos+n] == content[pos-offset:pos-offset+n], where the
// comparison reads overlapping ranges as they lie.
//
// It accepts exactly what AppendReconstruct, fed the literals AppendLiteralsAt
// gathers from content and followed by a comparison with content, accepts. By
// induction over the stream: while the output so far equals content[:pos], a
// literal appends content's own bytes, and a copy appends byte i from output
// position pos-offset+i, which is content's if i < offset and otherwise the
// copy's own byte i-offset, already shown equal to content[pos+i-offset]; so
// the copy reproduces content[pos:pos+n] exactly when the in-place comparison
// holds. The first copy that fails it leaves a wrong or surplus byte that no
// later append can repair.
func VerifySeqs(content []byte, start int, seqs []Seq, window int) (end int, err error) {
	if start < 0 || start > len(content) {
		return 0, ErrBadLiterals
	}
	pos := start
	for _, s := range seqs {
		// pos ≤ len(content) throughout, so one unsigned comparison also
		// rejects a negative length.
		if uint(s.LitLen) > uint(len(content)-pos) {
			return 0, ErrBadLiterals
		}
		pos += s.LitLen
		if s.MatchLen == 0 {
			continue
		}
		if s.Offset <= 0 || s.Offset > pos || (window > 0 && s.Offset > window) {
			return 0, fmt.Errorf("%w: offset %d, produced %d, window %d", ErrBadOffset, s.Offset, pos, window)
		}
		if uint(s.MatchLen) > uint(len(content)-pos) ||
			!bytes.Equal(content[pos:pos+s.MatchLen], content[pos-s.Offset:pos-s.Offset+s.MatchLen]) {
			return 0, fmt.Errorf("%w: %d bytes at %d from offset %d", ErrMismatch, s.MatchLen, pos, s.Offset)
		}
		pos += s.MatchLen
	}
	return pos, nil
}
