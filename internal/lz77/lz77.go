// Package lz77 implements the parameterized LZ77 dictionary-coding engine
// shared by the software codecs (snappy, zstdlite) and the CDPU functional
// model (internal/core).
//
// The engine mirrors the paper's LZ77 Hash Matcher block (§5.5): a hash table
// with a configurable number of entries, associativity, hash function and
// table contents, backed by a bounded history window. The same knobs that are
// compile-time or run-time parameters of the hardware generator (§5.8.3) are
// fields of Config here, so a single implementation serves both the software
// baselines and the accelerator model, exactly as the paper's generator
// re-uses its LZ77 encoder block across the Snappy and ZStd CDPUs.
package lz77

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	mathbits "math/bits"
)

// HashFunc selects the hash function used to index the match table
// (compile-time parameter 8 in §5.8.3).
type HashFunc int

const (
	// HashFibonacci multiplies the 4-byte window by a 32-bit Fibonacci
	// constant. This is the scheme used by Snappy and LZ4 and is the
	// generator's default.
	HashFibonacci HashFunc = iota
	// HashXorShift folds the bytes with xor/shift mixing; cheaper in gates,
	// slightly worse dispersion.
	HashXorShift
	// HashTrivial uses the low bits of the raw bytes directly; the cheapest
	// possible hash and the worst-colliding one. Useful as an ablation floor.
	HashTrivial
)

func (h HashFunc) String() string {
	switch h {
	case HashFibonacci:
		return "fibonacci"
	case HashXorShift:
		return "xorshift"
	case HashTrivial:
		return "trivial"
	default:
		return fmt.Sprintf("HashFunc(%d)", int(h))
	}
}

// TableContents selects what each hash-table way stores (compile-time
// parameter 7 in §5.8.3).
type TableContents int

const (
	// ContentsOffsetOnly stores just the candidate position. Every probe of a
	// way requires reading the history to verify the match.
	ContentsOffsetOnly TableContents = iota
	// ContentsOffsetAndTag additionally stores an 8-bit tag of the hashed
	// bytes, filtering most false probes before they touch history SRAM.
	ContentsOffsetAndTag
)

func (c TableContents) String() string {
	if c == ContentsOffsetAndTag {
		return "offset+tag"
	}
	return "offset"
}

// Config parameterizes a dictionary-coding pass.
type Config struct {
	// WindowSize bounds the maximum match offset, in bytes. Must be a power
	// of two. This models the encoder history SRAM: the paper notes that
	// compression cannot fall back to L2 for distant history because history
	// checking is serial (§6.3), so matches beyond WindowSize are simply
	// never found.
	WindowSize int
	// TableEntries is the number of hash buckets. Must be a power of two.
	TableEntries int
	// Associativity is the number of candidate positions kept per bucket.
	Associativity int
	// MinMatch is the minimum match length to emit (4 for Snappy, 3 for
	// ZStd-style codecs).
	MinMatch int
	// MaxMatch caps individual match lengths; 0 means unlimited.
	MaxMatch int
	// Hash selects the hash function.
	Hash HashFunc
	// Contents selects the per-way payload.
	Contents TableContents
	// SkipIncompressible enables the software heuristic that accelerates
	// through data that is not producing matches by striding the input. The
	// paper observes hardware omits this (it gains nothing at 1 position per
	// cycle), which is why the 64K accelerator slightly beats software on
	// compression ratio (§6.3).
	SkipIncompressible bool
	// Lazy enables one-position lazy matching (evaluate i+1 before
	// committing the match at i), trading speed for ratio as heavyweight
	// software levels do.
	Lazy bool
}

// Validate reports whether the configuration is self-consistent.
func (c *Config) Validate() error {
	switch {
	case c.WindowSize <= 0 || c.WindowSize&(c.WindowSize-1) != 0:
		return fmt.Errorf("lz77: WindowSize %d not a positive power of two", c.WindowSize)
	case c.TableEntries <= 0 || c.TableEntries&(c.TableEntries-1) != 0:
		return fmt.Errorf("lz77: TableEntries %d not a positive power of two", c.TableEntries)
	case c.Associativity < 1 || c.Associativity > 16:
		return fmt.Errorf("lz77: Associativity %d out of range [1,16]", c.Associativity)
	case c.MinMatch < 3 || c.MinMatch > 8:
		return fmt.Errorf("lz77: MinMatch %d out of range [3,8]", c.MinMatch)
	case c.MaxMatch != 0 && c.MaxMatch < c.MinMatch:
		return fmt.Errorf("lz77: MaxMatch %d below MinMatch %d", c.MaxMatch, c.MinMatch)
	}
	return nil
}

// Seq is one step of an LZ77 parse: LitLen literal bytes copied from the
// input, followed by a MatchLen-byte copy from Offset bytes back in the
// output. A terminal literal run has MatchLen == 0 and Offset == 0.
type Seq struct {
	LitLen   int
	Offset   int
	MatchLen int
}

// Stats aggregates matcher behaviour for the timing model and for ablations.
type Stats struct {
	Positions    int // input positions considered
	Probes       int // hash buckets probed
	WaysChecked  int // ways examined across all probes
	FalseProbes  int // ways that failed verification against history
	TagFiltered  int // ways skipped by the tag filter (ContentsOffsetAndTag)
	Matches      int // matches emitted
	MatchBytes   int // bytes covered by matches
	LiteralBytes int // bytes emitted as literals
	MaxOffset    int // largest offset used by any emitted match
}

// Matcher performs LZ77 parses under a fixed Config, retaining its hash table
// across calls to avoid per-call allocation. A Matcher is not safe for
// concurrent use.
//
// Table entries are stored as position+epoch rather than raw positions: each
// parse advances the epoch past everything the previous parse could have
// written, so stale entries decode below the current epoch and read as
// absent. That makes starting a parse O(1) instead of an O(table) clear —
// the table is physically zeroed only when the 32-bit encoding would wrap.
//
// Only the storage the chosen walk reads is allocated: pairs for walkPair,
// table (and tags, when the ways carry them) for the other two.
type Matcher struct {
	cfg    Config
	table  []uint32     // TableEntries * Associativity encoded positions
	tags   []uint8      // parallel tags when ContentsOffsetAndTag
	pairs  []pairBucket // walkPair's buckets
	shift  uint         // hash shift for fibonacci/xorshift
	direct bool         // the table's shape admits walkDirect (see NewMatcher)
	maxLen int          // MaxMatch as matchLen takes it: unlimited is MaxInt
	stride int          // what a miss adds to the skip accumulator: 1 when skipping, else 0
	stats  Stats
	seqs   []Seq  // parse output buffer, reused across calls
	next   uint32 // epoch for the next parse (last epoch + that parse's reach)
}

// NewMatcher returns a Matcher for cfg.
//
// The per-position walk is picked here, once, from the table's shape. A
// direct-mapped, untagged, Fibonacci-hashed table searched greedily for
// 4-byte matches — the hardware default and every point of the paper's
// history and table-size sweeps, and both Snappy encoders — runs walkDirect,
// where a probe is one table word and one history word. A two-way, tagged,
// Fibonacci-hashed table searched for 4-byte matches, greedily or lazily and
// without skipping — every zstdlite software level up to 9 — runs walkPair,
// where a bucket's positions and tags are ten adjacent bytes. Every other
// shape runs walkAssoc. The three produce the same Seqs and Stats on the
// shapes they share; the split buys host time only.
func NewMatcher(cfg Config) (*Matcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Matcher{cfg: cfg, next: 1, maxLen: cfg.MaxMatch}
	if cfg.MaxMatch == 0 {
		m.maxLen = math.MaxInt
	}
	if cfg.SkipIncompressible {
		m.stride = 1
	}
	m.shift = uint(32 - mathbits.TrailingZeros(uint(cfg.TableEntries)))
	fib4 := cfg.Hash == HashFibonacci && cfg.MinMatch == 4
	m.direct = fib4 && cfg.Associativity == 1 && cfg.Contents == ContentsOffsetOnly && !cfg.Lazy
	if fib4 && cfg.Associativity == 2 && cfg.Contents == ContentsOffsetAndTag && !cfg.SkipIncompressible {
		m.pairs = make([]pairBucket, cfg.TableEntries)
		return m, nil
	}
	m.table = make([]uint32, cfg.TableEntries*cfg.Associativity)
	if cfg.Contents == ContentsOffsetAndTag {
		m.tags = make([]uint8, len(m.table))
	}
	return m, nil
}

// SetWindow sets WindowSize, a power of two, for the parses that follow. The
// window bounds offsets, not the table, so one Matcher serves every window.
func (m *Matcher) SetWindow(size int) { m.cfg.WindowSize = size }

// Stats returns statistics accumulated since the last ResetStats call.
func (m *Matcher) Stats() Stats { return m.stats }

// ResetStats zeroes the accumulated statistics. Callers that encode one
// payload as multiple Parse calls (block-structured formats) reset once per
// payload so Stats reports whole-call totals.
func (m *Matcher) ResetStats() { m.stats = Stats{} }

// fibMul is 2^32 / golden ratio, the HashFibonacci multiplier.
const fibMul = 0x9E3779B1

// The kernels below are free functions over values the walks hoist out of the
// Matcher, small enough to inline: a method reading m.cfg, m.table or m.stats
// would reload them after every table store, and a call inside the
// per-position loop parks the loop's state on the stack.

// load32 reads the 4-byte word at i. The three-index slice is checked against
// cap(src), and has a constant length: no pointer mask, no second register
// for the length of a src sliced to its own length.
func load32(src []byte, i int) uint32 {
	return binary.LittleEndian.Uint32(src[i : i+4 : i+4])
}

// keyAt returns the MinMatch-byte hash key at position i, folded into 32
// bits. For MinMatch 3 only three bytes are read, so positions near the end
// of the input remain addressable. Two positions have equal keys exactly when
// their first min(MinMatch, 4) bytes agree (the 3-byte spread is a
// multiplication by an odd constant, a bijection).
func keyAt(src []byte, i int, three bool) uint32 {
	if three {
		v := uint32(src[i]) | uint32(src[i+1])<<8 | uint32(src[i+2])<<16
		return v * 0x01E35A7D // spread 3-byte keys before the main hash
	}
	return load32(src, i)
}

// bucket maps a key to its table bucket and way tag.
func bucket(hash HashFunc, v uint32, shift uint, mask uint32) (idx uint32, tag uint8) {
	switch hash {
	case HashFibonacci:
		h := v * fibMul
		return h >> shift, uint8(h >> 8)
	case HashXorShift:
		h := v
		h ^= h >> 15
		h *= 0x85EBCA77
		h ^= h >> 13
		return h >> shift, uint8(h)
	default: // HashTrivial
		return v & mask, uint8(v >> 16)
	}
}

// push records an encoded position at the head of the bucket whose first way
// is base, evicting FIFO. The shift is a loop of register moves so typical
// low-associativity tables never reach memmove.
func push(table []uint32, tags []uint8, base, assoc int, enc uint32, tag uint8) {
	for w := base + assoc - 1; w > base; w-- {
		table[w] = table[w-1]
	}
	table[base] = enc
	if tags != nil {
		for w := base + assoc - 1; w > base; w-- {
			tags[w] = tags[w-1]
		}
		tags[base] = tag
	}
}

// matchLen returns the length of the common prefix of src[a:] and src[b:],
// capped so that the match never reads past len(src). Requires a ≤ b (match
// candidates always precede the current position), which makes the eight-byte
// loads below safe: a+n+8 ≤ b+n+8 ≤ len(src) inside the word loop.
func matchLen(src []byte, a, b, maxLen int) int {
	maxLen = min(maxLen, len(src)-b)
	n := 0
	for n+8 <= maxLen {
		x := binary.LittleEndian.Uint64(src[a+n:a+n+8:a+n+8]) ^ binary.LittleEndian.Uint64(src[b+n:b+n+8:b+n+8])
		if x != 0 {
			return n + mathbits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < maxLen && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// Parse produces an LZ77 parse of src. The returned sequences cover src
// exactly: the sum of LitLen+MatchLen over all sequences equals len(src).
// The slice is owned by the Matcher and reused: it is valid only until the
// next Parse/ParsePrefixed call; callers that need it longer must copy.
func (m *Matcher) Parse(src []byte) []Seq {
	return m.ParsePrefixed(src, 0)
}

// ParsePrefixed parses src[start:] using src[:start] as pre-existing history
// (a preset dictionary, or the already-emitted part of a stream). The
// returned sequences cover exactly src[start:]; their offsets may reach into
// the prefix, up to the configured window. The slice is owned by the Matcher
// and reused by the next Parse/ParsePrefixed call.
func (m *Matcher) ParsePrefixed(src []byte, start int) []Seq {
	if start < 0 || start > len(src) {
		panic("lz77: ParsePrefixed start out of range")
	}
	// Start a fresh epoch instead of clearing the table (see Matcher doc).
	if m.next > ^uint32(0)-uint32(len(src))-1 {
		clear(m.table)
		clear(m.pairs)
		m.next = 1
	}
	epoch := m.next
	m.next += uint32(len(src))
	src = src[:len(src):len(src)] // load32 and matchLen check against the capacity
	n := len(src)
	seqs, litStart := m.seqs[:0], start
	var st Stats
	if n-start >= m.cfg.MinMatch {
		// Index the prefix so parsing can match into it. Every other position
		// keeps the cost linear while leaving the table warm, the same policy
		// used inside matches.
		three, mask := m.cfg.MinMatch == 3, uint32(m.cfg.TableEntries-1)
		for j := max(0, start-m.cfg.WindowSize); j < start; j += 2 {
			if m.pairs != nil {
				insertPair(m.pairs, load32(src, j), uint32(j)+epoch)
				continue
			}
			idx, tag := bucket(m.cfg.Hash, keyAt(src, j, three), m.shift, mask)
			push(m.table, m.tags, int(idx)*m.cfg.Associativity, m.cfg.Associativity, uint32(j)+epoch, tag)
		}
		switch {
		case m.direct:
			seqs, litStart, st = m.walkDirect(src, start, epoch, seqs)
		case m.pairs != nil:
			seqs, litStart, st = m.walkPair(src, start, epoch, seqs)
		default:
			seqs, litStart, st = m.walkAssoc(src, start, epoch, seqs)
		}
	}
	// Every sequence so far ends in a match, and what the matches do not
	// cover is literal.
	m.stats.Positions += st.Positions
	m.stats.Probes += st.Probes
	m.stats.WaysChecked += st.WaysChecked
	m.stats.FalseProbes += st.FalseProbes
	m.stats.TagFiltered += st.TagFiltered
	m.stats.Matches += len(seqs)
	m.stats.MatchBytes += st.MatchBytes
	m.stats.LiteralBytes += n - start - st.MatchBytes
	m.stats.MaxOffset = max(m.stats.MaxOffset, st.MaxOffset)
	if litStart < n {
		seqs = append(seqs, Seq{LitLen: n - litStart})
	}
	m.seqs = seqs
	return seqs
}

// walkDirect is the per-position walk for the shape NewMatcher names: one
// way per bucket, no tags, Fibonacci hash, 4-byte key, greedy. It returns the
// match sequences appended to seqs, the position literals resume from, and
// the walk's counters (Matches and LiteralBytes are left to the caller).
//
// The inner loop is the miss path, in two copies that share everything
// around them: one steps a position at a time (skipping off: the hardware
// shape, every compress-op device and every sweep point), the other strides
// by the skip accumulator. Each makes no calls — Go has no callee-saved
// registers, so one call would spill every loop-carried value each position —
// and leaves only on a candidate whose four key bytes are verified, or at the
// end of the input. The probed position always replaces the bucket's entry
// (insert follows probe on hit and miss alike), so the key is hashed once.
// The loops carry only what they read, in registers: Positions is derived
// once per miss run from how far i or the skip accumulator moved, the ways
// checked and the false probes share one word (see missCounts), the bucket
// index is a multiply by the table length (see slot), and the window test is
// one unsigned comparison.
func (m *Matcher) walkDirect(src []byte, start int, epoch uint32, seqs []Seq) ([]Seq, int, Stats) {
	table, window := m.table, m.cfg.WindowSize
	src = src[:len(src):len(src)] // as ParsePrefixed did: here the compiler sees it
	var st Stats
	// What the match path reads and the miss loops never lives in memory: a
	// struct past four words is never put in registers, where locals would be
	// reloaded at every position's back edge.
	var w struct {
		seqs                     []Seq
		litStart, maxLen, stride int
	}
	w.seqs, w.litStart, w.maxLen, w.stride = seqs, start, m.maxLen, m.stride
	i := start
	for {
		var c missCounts
		cand := -1
		if w.stride == 0 {
			st.Positions -= i
			for ; i+4 <= len(src); i++ {
				k := load32(src, i)
				h := slot(k*fibMul, len(table))
				pos := table[h]
				table[h] = uint32(i) + epoch
				if pos >= epoch { // else empty, or left over from an earlier parse
					c += wayChecked
					p := int(pos - epoch)
					if uint(i-p-1) < uint(window) { // p < i && i-p <= window
						if load32(src, p) == k {
							cand = p
							break
						}
						c += wayFalse
					}
				}
			}
			st.Positions += i
		} else {
			skip := 32
			for ; i+4 <= len(src); i, skip = i+skip>>5, skip+1 {
				k := load32(src, i)
				h := slot(k*fibMul, len(table))
				pos := table[h]
				table[h] = uint32(i) + epoch
				if pos >= epoch {
					c += wayChecked
					p := int(pos - epoch)
					if uint(i-p-1) < uint(window) {
						if load32(src, p) == k {
							cand = p
							break
						}
						c += wayFalse
					}
				}
			}
			st.Positions += skip - 32
		}
		st.WaysChecked += c.checked()
		st.FalseProbes += c.falses()
		if cand < 0 {
			break
		}
		st.Positions++ // the position that matched
		length := matchLen(src, cand, i, w.maxLen)
		offset := i - cand
		w.seqs = append(w.seqs, Seq{LitLen: i - w.litStart, Offset: offset, MatchLen: length})
		st.MatchBytes += length
		st.MaxOffset = max(st.MaxOffset, offset)
		// Index a sparse set of positions inside the match so later data can
		// still find this region (one insert every 2 bytes keeps the table
		// warm without quadratic work).
		end := i + length
		for j := i + 1; j < end && j+4 <= len(src); j += 2 {
			table[slot(load32(src, j)*fibMul, len(table))] = uint32(j) + epoch
		}
		i, w.litStart = end, end
	}
	st.Probes = st.Positions
	return w.seqs, w.litStart, st
}

// missCounts is a miss run's ways checked, in its low half, and false probes,
// in its high half: one register where two counters would spill. Neither half
// carries into the other: walkDirect's run counts at most one way a position,
// of fewer than 2^32 (the table holds positions in 32 bits), and walkPair's
// at most two, over at most maxPairRun.
type missCounts uint64

const (
	wayChecked missCounts = 1
	wayFalse   missCounts = 1 << 32
)

func (c missCounts) checked() int { return int(uint32(c)) }
func (c missCounts) falses() int  { return int(c >> 32) }

// maxPairRun bounds the positions of one walkPair miss run between folds of
// its missCounts.
const maxPairRun = 1 << 30

// walkAssoc is the per-position walk for every other shape: any
// associativity, hash, contents and MinMatch, greedy or lazy. Same contract
// as walkDirect and the same structure: a call-free miss path that hashes
// each position once for its probe and its insert, left only when a way's
// key bytes verify. Until one does the probe has no incumbent, so its rules
// reduce to the three counters kept here; probeWays takes over at that way.
func (m *Matcher) walkAssoc(src []byte, start int, epoch uint32, seqs []Seq) ([]Seq, int, Stats) {
	table, tags, shift := m.table, m.tags, m.shift
	hash, mask := m.cfg.Hash, uint32(m.cfg.TableEntries-1)
	assoc, window, stride := m.cfg.Associativity, m.cfg.WindowSize, m.stride
	three := m.cfg.MinMatch == 3
	limit := len(src) - m.cfg.MinMatch
	var positions, peeks, matchBytes, maxOffset int
	var c wayCounts
	i, litStart, skip := start, start, 32
walk:
	for {
		var (
			k    uint32
			tag  uint8
			base int
			w    int // the first way whose key bytes verify
		)
		for {
			if i > limit {
				break walk
			}
			k = keyAt(src, i, three)
			var idx uint32
			idx, tag = bucket(hash, k, shift, mask)
			base = int(idx) * assoc
			positions++
			for w = base; w < base+assoc; w++ {
				pos := table[w]
				if pos < epoch {
					continue // empty, or left over from an earlier parse
				}
				if tags != nil && tags[w] != tag {
					c.tagFiltered++
					continue
				}
				p := int(pos - epoch)
				inWindow := p < i && i-p <= window
				if inWindow && keyAt(src, p, three) == k {
					break
				}
				c.checked++
				if inWindow {
					c.falses++
				}
			}
			if w < base+assoc {
				break
			}
			push(table, tags, base, assoc, uint32(i)+epoch, tag)
			i += skip >> 5
			skip += stride
		}
		cand, length, d := m.probeWays(src, i, k, tag, w, base+assoc, epoch)
		c = c.plus(d)
		push(table, tags, base, assoc, uint32(i)+epoch, tag)
		if length == 0 { // the verified way fell short of MinMatch: a miss after all
			i += skip >> 5
			skip += stride
			continue
		}
		skip = 32
		if m.cfg.Lazy && i+1 <= limit {
			// Peek one position ahead; prefer a strictly longer match there.
			k := keyAt(src, i+1, three)
			idx, tag := bucket(hash, k, shift, mask)
			peeks++
			cand2, length2, d := m.probeWays(src, i+1, k, tag, int(idx)*assoc, int(idx+1)*assoc, epoch)
			c = c.plus(d)
			if length2 > length {
				i++
				cand, length = cand2, length2
			}
		}
		offset := i - cand
		seqs = append(seqs, Seq{LitLen: i - litStart, Offset: offset, MatchLen: length})
		matchBytes += length
		maxOffset = max(maxOffset, offset)
		// Index a sparse set of positions inside the match, as walkDirect does.
		end := i + length
		for j := i + 1; j < end && j <= limit; j += 2 {
			idx, tag := bucket(hash, keyAt(src, j, three), shift, mask)
			push(table, tags, int(idx)*assoc, assoc, uint32(j)+epoch, tag)
		}
		i, litStart = end, end
	}
	return seqs, litStart, Stats{
		Positions: positions, Probes: positions + peeks, WaysChecked: c.checked, FalseProbes: c.falses,
		TagFiltered: c.tagFiltered, MatchBytes: matchBytes, MaxOffset: maxOffset,
	}
}

// wayCounts are the per-way statistics of a probe.
type wayCounts struct{ checked, falses, tagFiltered int }

func (c wayCounts) plus(d wayCounts) wayCounts {
	return wayCounts{c.checked + d.checked, c.falses + d.falses, c.tagFiltered + d.tagFiltered}
}

// probeWays examines table ways [w, end) of the bucket of position q, whose
// key is k and way tag is tag, and returns the best verified candidate within
// the window — the longest match, ties to the smaller offset — with the
// length it measured (0 if none reaches MinMatch) and what it counted.
func (m *Matcher) probeWays(src []byte, q int, k uint32, tag uint8, w, end int, epoch uint32) (bestPos, bestLen int, c wayCounts) {
	three := m.cfg.MinMatch == 3
	bestPos = -1
	for ; w < end; w++ {
		pos := m.table[w]
		if pos < epoch {
			continue // empty, or left over from an earlier parse
		}
		if m.tags != nil && m.tags[w] != tag {
			c.tagFiltered++
			continue
		}
		c.checked++
		p := int(pos - epoch)
		if p >= q || q-p > m.cfg.WindowSize {
			continue
		}
		// Cheap reject before the full extension: a candidate displaces the
		// incumbent only by being strictly longer, or equal-length at a
		// larger position. If the bytes at the incumbent's length already
		// differ, the candidate cannot be longer; losing the position tie
		// too means it cannot win, so the extension's outcome is irrelevant.
		if p < bestPos && q+bestLen < len(src) && src[p+bestLen] != src[q+bestLen] {
			continue
		}
		// A way whose key bytes differ cannot reach MinMatch; it is counted
		// as the extension would have counted it.
		if keyAt(src, p, three) != k {
			c.falses++
			continue
		}
		l := matchLen(src, p, q, m.maxLen)
		if l < m.cfg.MinMatch {
			c.falses++
			continue
		}
		if l > bestLen || (l == bestLen && p > bestPos) {
			bestPos, bestLen = p, l
		}
	}
	return bestPos, bestLen, c
}

// pairBytes is the size of a walkPair bucket: the two ways' encoded positions
// as one little-endian 64-bit word, way 0 in its low half, then their two tags
// as one 16-bit word, way 0 in its low byte. Ten bytes a bucket is what the
// table and tag arrays of the same shape take together; in one array a probe
// reads them from one cache line (two for the bucket in eight that straddles),
// and pushing a position is a shift of each word. A zero bucket is empty, like
// a zero table entry.
const pairBytes = 10

// pairBucket is one walkPair bucket. As an array element it is indexed with
// one bounds check against the bucket count, and its words load at constant
// offsets.
type pairBucket [pairBytes]byte

// slot returns the index of the bucket of a key whose Fibonacci product is h
// in a table of n buckets, n a power of two: the top log2(n) bits of h, which
// is h >> shift written as a multiply. The multiply needs no shift count in CX,
// and a walk that indexes with n = len(table) spends one register on both the
// index and its bounds check.
func slot(h uint32, n int) uint64 {
	return uint64(h) * uint64(n) >> 32
}

// words returns the bucket's two words.
func (b *pairBucket) words() (ways uint64, tags uint16) {
	return binary.LittleEndian.Uint64(b[:]), binary.LittleEndian.Uint16(b[8:])
}

// push records the encoded position enc, whose way tag is tag, at the head of
// the bucket — the old head becomes the second way and the old second way is
// evicted, as push does — and returns the bucket's words as they were.
func (b *pairBucket) push(enc uint32, tag uint8) (ways uint64, tags uint16) {
	ways, tags = b.words()
	binary.LittleEndian.PutUint64(b[:], ways<<32|uint64(enc))
	binary.LittleEndian.PutUint16(b[8:], tags<<8|uint16(tag))
	return ways, tags
}

// insertPair pushes the encoded position enc, whose key is k, into k's bucket.
func insertPair(pairs []pairBucket, k uint32, enc uint32) {
	h := k * fibMul
	pairs[slot(h, len(pairs))].push(enc, uint8(h>>8))
}

// walkPair is the per-position walk for the shape NewMatcher names: two
// tagged ways per bucket, Fibonacci hash, 4-byte key, greedy or lazy, no
// skipping. Same contract and structure as walkDirect's stepping loop, over
// pairBuckets: a probe pushes the position at once (insert follows probe on
// hit and miss alike) and keeps the bucket's words as they were, the snapshot
// the miss path and probePair judge. The miss path spells the two ways out:
// as a loop over them it ran up to a third slower on miss-heavy input. It
// counts ways checked and false probes in one word, and TagFiltered straight
// into memory: a third counter would not fit the registers the loop has.
func (m *Matcher) walkPair(src []byte, start int, epoch uint32, seqs []Seq) ([]Seq, int, Stats) {
	pairs, window := m.pairs, m.cfg.WindowSize
	src = src[:len(src):len(src)]
	var st Stats
	var w struct { // memory-resident, as walkDirect's
		seqs             []Seq
		litStart, maxLen int
		lazy             bool
	}
	w.seqs, w.litStart, w.maxLen, w.lazy = seqs, start, m.maxLen, m.cfg.Lazy
	i := start
	for {
		var (
			c    missCounts
			ways uint64 // the bucket as probed, less any way the miss path judged
			tags uint16 // its tags, xor the probe's tag in each byte (tx)
		)
		// A position adds at most two to either half of c, so a miss run
		// stops every maxPairRun positions to fold it.
		n := min(len(src), i+maxPairRun)
		run := src[:n:n]
		st.Positions -= i
		for ; i+4 <= len(run); i++ {
			ki := load32(run, i)
			h := ki * fibMul
			wi, ti := pairs[slot(h, len(pairs))].push(uint32(i)+epoch, uint8(h>>8))
			tx := ti ^ uint16(uint8(h>>8))*0x0101 // a way's byte is 0 where its tag matches
			if pos := uint32(wi); pos >= epoch {  // else empty, or left over from an earlier parse
				if uint8(tx) != 0 {
					st.TagFiltered++
				} else if p := int(pos - epoch); uint(i-p-1) >= uint(window) { // p >= i || i-p > window
					c += wayChecked
				} else if load32(run, p) == ki {
					ways, tags = wi, tx
					break
				} else {
					c += wayChecked + wayFalse
				}
			}
			if pos := uint32(wi >> 32); pos >= epoch {
				if tx>>8 != 0 {
					st.TagFiltered++
				} else if p := int(pos - epoch); uint(i-p-1) >= uint(window) {
					c += wayChecked
				} else if load32(run, p) == ki {
					ways, tags = wi&^(1<<32-1), tx // way 0 is judged and counted
					break
				} else {
					c += wayChecked + wayFalse
				}
			}
		}
		st.Positions += i
		st.WaysChecked += c.checked()
		st.FalseProbes += c.falses()
		if i+4 > len(run) {
			if len(run) == len(src) {
				break
			}
			continue // the miss run goes on past maxPairRun positions
		}
		k := load32(src, i)
		tags ^= uint16(uint8(k*fibMul>>8)) * 0x0101
		// The verified way's four key bytes are MinMatch, so the probe finds a
		// match: unlike walkAssoc there is no falling short of it.
		st.Positions++
		cand, length, d := probePair(src, i, k, ways, tags, epoch, window, w.maxLen, 0)
		st.addWays(d)
		if w.lazy && i+5 <= len(src) {
			// Peek one position ahead; prefer a strictly longer match there.
			k := load32(src, i+1)
			st.Probes++
			ways, tags := pairs[slot(k*fibMul, len(pairs))].words()
			cand2, length2, d := probePair(src, i+1, k, ways, tags, epoch, window, w.maxLen, length)
			st.addWays(d)
			if length2 > length {
				i++
				cand, length = cand2, length2
			}
		}
		offset := i - cand
		w.seqs = append(w.seqs, Seq{LitLen: i - w.litStart, Offset: offset, MatchLen: length})
		st.MatchBytes += length
		st.MaxOffset = max(st.MaxOffset, offset)
		// Index a sparse set of positions inside the match, as walkDirect does.
		end := i + length
		for j := i + 1; j < end && j+4 <= len(src); j += 2 {
			insertPair(pairs, load32(src, j), uint32(j)+epoch)
		}
		i, w.litStart = end, end
	}
	st.Probes += st.Positions
	return w.seqs, w.litStart, st
}

// addWays adds a probe's per-way counts.
func (st *Stats) addWays(c wayCounts) {
	st.WaysChecked += c.checked
	st.FalseProbes += c.falses
	st.TagFiltered += c.tagFiltered
}

// probePair is probeWays on a walkPair bucket as read: the two words of the
// bucket of position q, whose key is k. Only a way longer than floor wins —
// the probe at a match's position passes 0, the lazy peek the incumbent's
// length — so a way that cannot beat it is counted as probeWays counts it but
// never measured. That count depends on one measurement: a way whose key
// bytes differ is a false probe unless it lies below a verified way 0 and
// differs from q at way 0's length, where probeWays's cheap reject passes
// over it first. Way 0 is measured for that rule alone when the floor spared
// it. If no way beats the floor, bestLen is floor.
func probePair(src []byte, q int, k uint32, ways uint64, tags uint16, epoch uint32, window, maxLen, floor int) (bestPos, bestLen int, c wayCounts) {
	tag := uint8(k * fibMul >> 8)
	bestPos, bestLen = math.MaxInt, floor
	p0, l0 := -1, -1 // way 0 when its key bytes verify, and its length once measured
	for w := 0; w < 2; w, ways, tags = w+1, ways>>32, tags>>8 {
		pos := uint32(ways)
		if pos < epoch {
			continue
		}
		if uint8(tags) != tag {
			c.tagFiltered++
			continue
		}
		c.checked++
		p := int(pos - epoch)
		if p >= q || q-p > window {
			continue
		}
		if load32(src, p) != k {
			if p < p0 {
				if l0 < 0 {
					l0 = matchLen(src, p0, q, maxLen)
				}
				if q+l0 < len(src) && src[p+l0] != src[q+l0] {
					continue
				}
			}
			c.falses++
			continue
		}
		if w == 0 {
			p0 = p
		}
		// A way displaces the best only by being longer, or as long at a
		// larger position; if its byte at bestLen already differs it cannot.
		if p < bestPos && (q+bestLen >= len(src) || src[p+bestLen] != src[q+bestLen]) {
			continue
		}
		l := matchLen(src, p, q, maxLen)
		if w == 0 {
			l0 = l
		}
		if l > bestLen || (l == bestLen && p > bestPos) {
			bestPos, bestLen = p, l
		}
	}
	return bestPos, bestLen, c
}

// AppendLiteralsAt extracts, in order, the literal bytes referenced by
// sequences that cover src[start:] (the ParsePrefixed form; start 0 for a
// plain Parse), appending them to a caller-owned buffer so encoders replaying
// many blocks can reuse one literal scratch across calls.
func AppendLiteralsAt(dst, src []byte, start int, seqs []Seq) []byte {
	pos := start
	for _, s := range seqs {
		dst = append(dst, src[pos:pos+s.LitLen]...)
		pos += s.LitLen + s.MatchLen
	}
	return dst
}

// Errors returned by AppendReconstruct.
var (
	ErrBadOffset   = errors.New("lz77: copy offset out of range")
	ErrBadLiterals = errors.New("lz77: literal stream exhausted")
)

// AppendReconstruct is the LZ77 decoder: it replays seqs against the literal
// stream, appending the produced bytes to out. Copy offsets may reach into
// the pre-existing out contents (dictionary or earlier blocks of a frame).
// window bounds the maximum legal copy offset (0 means unbounded); offsets
// beyond it are format errors, mirroring the decompressor's window-size
// contract (§3.6).
func AppendReconstruct(out []byte, seqs []Seq, literals []byte, window int) ([]byte, error) {
	lp := 0
	for _, s := range seqs {
		if lp+s.LitLen > len(literals) {
			return nil, ErrBadLiterals
		}
		out = append(out, literals[lp:lp+s.LitLen]...)
		lp += s.LitLen
		if s.MatchLen == 0 {
			continue
		}
		if s.Offset <= 0 || s.Offset > len(out) || (window > 0 && s.Offset > window) {
			return nil, fmt.Errorf("%w: offset %d, produced %d, window %d", ErrBadOffset, s.Offset, len(out), window)
		}
		out = AppendCopy(out, s.Offset, s.MatchLen)
	}
	return out, nil
}

// ErrOverrun is Replay's verdict on a command that would write past the end
// of the output it was given.
var ErrOverrun = errors.New("lz77: command runs past the output's end")

// Slack is how many bytes past the end of its output Replay and CopyMatch may
// write: a short literal run or copy is one 16-byte move, whatever its length.
// A decoder that owns its output buffer sizes it to the output plus Slack and
// reslices to the output when done.
const Slack = 16

// Replay is AppendReconstruct into a buffer the caller owns: it replays seqs
// against the literal stream into out[d:end], where out[:d] is the history
// copies may reach into, and returns the position after the last command. It
// rejects what AppendReconstruct rejects, with the same sentinels, and also
// any command that would run past end (ErrOverrun). It writes nothing outside
// out[d:end+Slack], and len(out) must be at least end+Slack.
//
// Each command is checked in full before any of it is written, in
// AppendReconstruct's order: the literal run, the copy's offset, then the
// command's extent.
func Replay(out []byte, d, end int, seqs []Seq, lits []byte, window int) (int, error) {
	out = out[:end+Slack]
	lp := 0
	for _, s := range seqs {
		ll, ml := s.LitLen, s.MatchLen
		if uint(ll) > uint(len(lits)-lp) {
			return 0, ErrBadLiterals
		}
		if ml != 0 && (s.Offset <= 0 || s.Offset > d+ll || (window > 0 && s.Offset > window)) {
			return 0, fmt.Errorf("%w: offset %d, produced %d, window %d", ErrBadOffset, s.Offset, d+ll, window)
		}
		if uint(ll) > uint(end-d) || uint(ml) > uint(end-d-ll) {
			return 0, fmt.Errorf("%w: %d+%d bytes at %d, end %d", ErrOverrun, ll, ml, d, end)
		}
		if ll <= 16 && len(lits)-lp >= 16 {
			*(*[16]byte)(out[d:]) = *(*[16]byte)(lits[lp:])
		} else {
			copy(out[d:d+ll], lits[lp:lp+ll])
		}
		d += ll
		lp += ll
		if ml == 0 {
			continue
		}
		if s.Offset >= 16 && ml <= 16 {
			*(*[16]byte)(out[d:]) = *(*[16]byte)(out[d-s.Offset:])
		} else {
			CopyMatch(out, d, s.Offset, ml)
		}
		d += ml
	}
	return d, nil
}

// CopyMatch writes the n bytes at out[d:] that a copy from offset bytes back
// produces: AppendCopy into a buffer the caller owns. The caller has checked
// 0 < offset ≤ d and sized out to at least d+n+Slack; CopyMatch writes nothing
// outside out[d:d+n+Slack]. A move reads only bytes already final: at offset
// ≥ 16 a 16-byte move reads 16 bytes that end at or before the byte it starts
// writing, at 8 ≤ offset < 16 an 8-byte move does, and below 8 bytes apart a
// long copy doubles its run from a fixed origin as AppendCopy does.
//
// A call does not fit Go's inlining budget, so a hot loop takes the common
// copy, at least 16 bytes back and at most 16 long, as one 16-byte move of its
// own, as Replay and the Snappy decoder do.
func CopyMatch(out []byte, d, offset, n int) {
	s := d - offset
	switch {
	case offset >= n && n > 64:
		copy(out[d:d+n], out[s:s+n])
	case offset >= 16:
		for i := 0; i < n; i += 16 {
			*(*[16]byte)(out[d+i:]) = *(*[16]byte)(out[s+i:])
		}
	case offset >= 8:
		for i := 0; i < n; i += 8 {
			*(*[8]byte)(out[d+i:]) = *(*[8]byte)(out[s+i:])
		}
	case n <= 32:
		for i := range n {
			out[d+i] = out[s+i]
		}
	default:
		for run := offset; n > run; run *= 2 {
			copy(out[d:d+run], out[s:s+run])
			d += run
			n -= run
		}
		copy(out[d:d+n], out[s:s+n])
	}
}

// AppendCopy appends n bytes to out, copied from offset bytes before its end:
// the LZ77 copy the append-based decoders replay (Replay's CopyMatch is the
// same copy into an owned buffer). The caller has checked 0 < offset ≤
// len(out). A copy may overlap what it writes (offset < n), the RLE-style
// encoding all LZ77 formats rely on; it then proceeds in chunks from the same
// fixed origin, each reading only bytes already produced, the available run
// doubling every time.
func AppendCopy(out []byte, offset, n int) []byte {
	from, run := len(out)-offset, offset
	for n > run {
		out = append(out, out[from:from+run]...)
		n -= run
		run *= 2
	}
	return append(out, out[from:from+n]...)
}

// ErrMismatch is a plan verifier's verdict on a copy whose source differs
// from the bytes it claims to produce, or that runs past the content's end.
var ErrMismatch = errors.New("lz77: copy does not reproduce the content")

// TotalLen returns the number of source bytes covered by seqs.
func TotalLen(seqs []Seq) int {
	n := 0
	for _, s := range seqs {
		n += s.LitLen + s.MatchLen
	}
	return n
}
