// Package fse implements Finite State Entropy coding (tabled Asymmetric
// Numeral Systems, tANS), the entropy coder ZStd uses for sequence codes and
// the functional model behind the CDPU's FSE compressor and expander blocks
// (§5.4, §5.7 of the paper).
//
// The implementation follows the classic FSE construction: symbol counts are
// normalized to a power-of-two table size (1 << TableLog, the "accuracy" knob
// that is compile-time parameter 12 of the hardware generator), symbols are
// spread across the state table with the standard coprime-step walk, and
// encoding runs backward over the data so that decoding streams forward.
package fse

import (
	"errors"
	"fmt"
	"math/bits"

	ibits "cdpu/internal/bits"
)

// Limits on table accuracy. ZStd uses 5-9 bits for sequence tables; hardware
// accuracy is bounded by the FSE table SRAM size.
const (
	MinTableLog = 5
	MaxTableLog = 12
)

// Errors returned by table construction and coding.
var (
	ErrEmptyInput   = errors.New("fse: empty input")
	ErrBadCounts    = errors.New("fse: invalid normalized counts")
	ErrBadStream    = errors.New("fse: corrupt stream")
	ErrBadSymbol    = errors.New("fse: symbol out of alphabet")
	ErrBadTableLog  = errors.New("fse: table log out of range")
	ErrSingleSymbol = errors.New("fse: degenerate single-symbol alphabet")
)

// Normalize scales a histogram so it sums to exactly 1<<tableLog, keeping
// every present symbol at count >= 1. It returns ErrSingleSymbol when only
// one symbol is present (callers should RLE-encode instead, as ZStd does).
func Normalize(hist []int, tableLog int) ([]int, error) {
	return AppendNormalize(nil, hist, tableLog)
}

// rem is one largest-remainder candidate during normalization.
type rem struct {
	sym  int
	frac float64
}

// AppendNormalize is Normalize writing the counts into dst's backing array
// (grown as needed), the buffer-reusing form for encoders that normalize a
// histogram per block. The returned slice always has len(hist) entries.
func AppendNormalize(dst []int, hist []int, tableLog int) ([]int, error) {
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return nil, fmt.Errorf("%w: %d", ErrBadTableLog, tableLog)
	}
	total := 0
	present := 0
	for _, c := range hist {
		if c < 0 {
			return nil, fmt.Errorf("%w: negative count", ErrBadCounts)
		}
		if c > 0 {
			present++
		}
		total += c
	}
	if total == 0 {
		return nil, ErrEmptyInput
	}
	if present == 1 {
		return nil, ErrSingleSymbol
	}
	size := 1 << tableLog
	if present > size {
		return nil, fmt.Errorf("%w: %d symbols exceed table size %d", ErrBadCounts, present, size)
	}
	var norm []int
	if cap(dst) >= len(hist) {
		norm = dst[:len(hist)]
		clear(norm)
	} else {
		norm = make([]int, len(hist))
	}
	// Largest-remainder scaling with a floor of 1 for present symbols. The
	// candidate set is stack-allocated for the small alphabets the sequence
	// streams use (<= maxSeqCode symbols); larger alphabets spill to the heap.
	assigned := 0
	var remsBuf [64]rem
	rems := remsBuf[:0]
	for s, c := range hist {
		if c == 0 {
			continue
		}
		exact := float64(c) * float64(size) / float64(total)
		n := int(exact)
		if n < 1 {
			n = 1
		}
		norm[s] = n
		assigned += n
		rems = append(rems, rem{s, exact - float64(n)})
	}
	// Distribute or reclaim the difference, preferring symbols with the
	// largest fractional remainder (to add) or the largest count (to remove).
	for assigned < size {
		best := -1
		var bestFrac float64 = -1
		for i, r := range rems {
			if r.frac > bestFrac {
				bestFrac = r.frac
				best = i
			}
		}
		norm[rems[best].sym]++
		rems[best].frac -= 1
		assigned++
	}
	for assigned > size {
		best := -1
		bestCount := 1
		for s, n := range norm {
			if n > bestCount {
				bestCount = n
				best = s
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("%w: cannot reduce to table size", ErrBadCounts)
		}
		norm[best]--
		assigned--
	}
	return norm, nil
}

// checkNorm validates that norm sums to 1<<tableLog with ≥2 present symbols.
func checkNorm(norm []int, tableLog int) error {
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return fmt.Errorf("%w: %d", ErrBadTableLog, tableLog)
	}
	sum, present := 0, 0
	for _, n := range norm {
		if n < 0 {
			return fmt.Errorf("%w: negative", ErrBadCounts)
		}
		if n > 0 {
			present++
		}
		sum += n
	}
	if sum != 1<<tableLog {
		return fmt.Errorf("%w: sum %d != %d", ErrBadCounts, sum, 1<<tableLog)
	}
	if present < 2 {
		return ErrSingleSymbol
	}
	return nil
}

// spread distributes symbols across the state table using the standard
// coprime-step walk ((size>>1)+(size>>3)+3), writing into dst (grown as
// needed) so table rebuilds can reuse one scratch buffer.
func spread(dst []uint8, norm []int, tableLog int) []uint8 {
	size := 1 << tableLog
	mask := size - 1
	step := size>>1 + size>>3 + 3
	if cap(dst) >= size {
		dst = dst[:size]
	} else {
		dst = make([]uint8, size)
	}
	pos := 0
	for s, n := range norm {
		for i := 0; i < n; i++ {
			dst[pos] = uint8(s)
			pos = (pos + step) & mask
		}
	}
	return dst
}

// growInts returns a zeroed []int of length n reusing buf's backing array
// when it is large enough.
func growInts(buf []int, n int) []int {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]int, n)
}

// EncTable is a built FSE encoding table. Init rebuilds a table in place,
// reusing every internal buffer, so a long-lived encoder can construct one
// table per block with zero steady-state allocation.
type EncTable struct {
	tableLog       int
	stateTable     []uint16 // indexed by cumulative rank
	deltaNbBits    []uint32 // per symbol
	deltaFindState []int32  // per symbol
	norm           []int

	// Rebuild + encode scratch, reused by Init and Encode.
	symScratch []uint8
	cumScratch []int
	groups     []bitGroup
}

// NewEncTable builds an encoding table from normalized counts.
func NewEncTable(norm []int, tableLog int) (*EncTable, error) {
	t := &EncTable{}
	if err := t.Init(norm, tableLog); err != nil {
		return nil, err
	}
	return t, nil
}

// Init (re)builds the table from normalized counts, reusing the receiver's
// buffers. A failed Init leaves the table unusable until the next successful
// one.
func (t *EncTable) Init(norm []int, tableLog int) error {
	if err := checkNorm(norm, tableLog); err != nil {
		return err
	}
	size := 1 << tableLog
	t.symScratch = spread(t.symScratch, norm, tableLog)
	tableSymbol := t.symScratch

	// next[s] walks the cumulative ranks while the state table fills.
	next := growInts(t.cumScratch, len(norm))
	t.cumScratch = next
	acc := 0
	for s, n := range norm {
		next[s] = acc
		acc += n
	}
	if cap(t.stateTable) >= size {
		t.stateTable = t.stateTable[:size]
	} else {
		t.stateTable = make([]uint16, size)
	}
	for u := 0; u < size; u++ {
		s := tableSymbol[u]
		t.stateTable[next[s]] = uint16(size + u)
		next[s]++
	}

	if cap(t.deltaNbBits) >= len(norm) {
		t.deltaNbBits = t.deltaNbBits[:len(norm)]
		t.deltaFindState = t.deltaFindState[:len(norm)]
		clear(t.deltaFindState)
	} else {
		t.deltaNbBits = make([]uint32, len(norm))
		t.deltaFindState = make([]int32, len(norm))
	}
	total := 0
	for s, n := range norm {
		switch {
		case n == 0:
			t.deltaNbBits[s] = uint32(tableLog+1) << 16 // poisoned
		case n == 1:
			t.deltaNbBits[s] = uint32(tableLog)<<16 - uint32(size)
			t.deltaFindState[s] = int32(total - 1)
			total++
		default:
			// highbit(n-1) = bits.Len32(n-1) - 1.
			maxBitsOut := tableLog - (bits.Len32(uint32(n-1)) - 1)
			minStatePlus := uint32(n) << uint(maxBitsOut)
			t.deltaNbBits[s] = uint32(maxBitsOut)<<16 - minStatePlus
			t.deltaFindState[s] = int32(total - n)
			total += n
		}
	}
	t.tableLog = tableLog
	t.norm = append(t.norm[:0], norm...)
	return nil
}

// bitGroup is one deferred bit emission produced during backward encoding.
type bitGroup struct {
	val uint32
	n   uint8
}

// Encode appends the FSE encoding of symbols to w. The emitted layout is
// forward-decodable: first the final encoder state (tableLog bits), then one
// bit group per symbol in decode order. Encode reuses the table's deferred-bit
// scratch, so concurrent Encode calls need separate tables (Init is likewise
// per-table; only DecTable is shareable across goroutines).
func (t *EncTable) Encode(w *ibits.Writer, symbols []uint8) error {
	if len(symbols) == 0 {
		return ErrEmptyInput
	}
	size := 1 << t.tableLog
	groups := t.groups[:0]
	// Initialize the state to one that decodes to the last symbol: the
	// decoder's final emitted symbol comes straight from this state, so the
	// last symbol costs no bits beyond the flushed state itself.
	last := symbols[len(symbols)-1]
	if int(last) >= len(t.norm) || t.norm[last] == 0 {
		return fmt.Errorf("%w: %d", ErrBadSymbol, last)
	}
	state := uint32(t.firstState(last))
	for i := len(symbols) - 2; i >= 0; i-- {
		s := symbols[i]
		if int(s) >= len(t.norm) || t.norm[s] == 0 {
			return fmt.Errorf("%w: %d", ErrBadSymbol, s)
		}
		nb := (state + t.deltaNbBits[s]) >> 16
		groups = append(groups, bitGroup{val: state & (1<<nb - 1), n: uint8(nb)})
		state = uint32(t.stateTable[(state>>nb)+uint32(t.deltaFindState[s])])
	}
	t.groups = groups
	// Forward layout: final state, then groups reversed (decode order).
	w.WriteBits(uint64(state)-uint64(size), uint(t.tableLog))
	for i := len(groups) - 1; i >= 0; i-- {
		w.WriteBits(uint64(groups[i].val), uint(groups[i].n))
	}
	return nil
}

// firstState returns the lowest state value assigned to symbol s.
func (t *EncTable) firstState(s uint8) uint16 {
	return t.stateTable[t.deltaFindState[s]+int32(t.norm[s])]
}

// EncodedBits returns the exact number of bits Encode writes for symbols
// (the table header excluded), walking the same state chain without building
// the output.
func (t *EncTable) EncodedBits(symbols []uint8) int {
	if len(symbols) == 0 {
		return 0
	}
	state := uint32(t.firstState(symbols[len(symbols)-1]))
	total := t.tableLog
	for i := len(symbols) - 2; i >= 0; i-- {
		s := symbols[i]
		nb := (state + t.deltaNbBits[s]) >> 16
		total += int(nb)
		state = uint32(t.stateTable[(state>>nb)+uint32(t.deltaFindState[s])])
	}
	return total
}

// EncodedBits3 is EncodedBits of three equal-length streams, each under its
// own table, in one backward walk: the three state chains are independent,
// so interleaving them lets their table loads overlap. Streams of unequal
// length are sized one by one.
func EncodedBits3(ta, tb, tc *EncTable, a, b, c []uint8) (na, nb, nc int) {
	n := len(a)
	if len(b) != n || len(c) != n {
		return ta.EncodedBits(a), tb.EncodedBits(b), tc.EncodedBits(c)
	}
	if n == 0 {
		return 0, 0, 0
	}
	b, c = b[:n], c[:n]
	sa := uint32(ta.firstState(a[n-1]))
	sb := uint32(tb.firstState(b[n-1]))
	sc := uint32(tc.firstState(c[n-1]))
	na, nb, nc = ta.tableLog, tb.tableLog, tc.tableLog
	for i := n - 2; i >= 0; i-- {
		x, y, z := a[i], b[i], c[i]
		ka := (sa + ta.deltaNbBits[x]) >> 16
		kb := (sb + tb.deltaNbBits[y]) >> 16
		kc := (sc + tc.deltaNbBits[z]) >> 16
		na += int(ka)
		nb += int(kb)
		nc += int(kc)
		sa = uint32(ta.stateTable[(sa>>ka)+uint32(ta.deltaFindState[x])])
		sb = uint32(tb.stateTable[(sb>>kb)+uint32(tb.deltaFindState[y])])
		sc = uint32(tc.stateTable[(sc>>kc)+uint32(tc.deltaFindState[z])])
	}
	return na, nb, nc
}

// DecEntry is one decode-table cell: the symbol its state emits, and the
// next state, Base plus the next NbBits stream bits.
type DecEntry struct {
	Base   uint16
	Sym    uint8
	NbBits uint8
}

// DecTable is a built FSE decoding table. A built table is immutable: a
// decoder keeps its walk state on the stack and only reads the entries, so
// one DecTable may serve any number of goroutines concurrently — which is
// what lets zstdlite memoize tables behind a shared cache.
//
// A lane is one decode walk: its first state is the stream's first TableLog
// bits, and each state emits Entries()[state].Sym and moves on to Base plus
// the next NbBits bits. Every next state is a valid index, so a lane needs no
// range check: NbBits ≤ TableLog and Base + 2^NbBits ≤ 2^TableLog in every
// cell NewDecTable builds.
type DecTable struct {
	tableLog int
	entries  []DecEntry
}

// NewDecTable builds a decoding table from normalized counts.
func NewDecTable(norm []int, tableLog int) (*DecTable, error) {
	if err := checkNorm(norm, tableLog); err != nil {
		return nil, err
	}
	size := 1 << tableLog
	tableSymbol := spread(nil, norm, tableLog)
	entries := make([]DecEntry, size)
	symbolNext := make([]int, len(norm))
	copy(symbolNext, norm)
	for u := 0; u < size; u++ {
		s := tableSymbol[u]
		x := symbolNext[s]
		symbolNext[s]++
		nb := tableLog - (bits.Len32(uint32(x)) - 1)
		entries[u] = DecEntry{
			Sym:    s,
			NbBits: uint8(nb),
			Base:   uint16(x<<uint(nb) - size),
		}
	}
	return &DecTable{tableLog: tableLog, entries: entries}, nil
}

// TableLog returns the table's accuracy: the width of a lane's first state.
func (t *DecTable) TableLog() int { return t.tableLog }

// Entries returns the table's cells, indexed by state. The slice is the
// table's own and must not be modified.
func (t *DecTable) Entries() []DecEntry { return t.entries }

// Decode reads n symbols from r, appending them to dst: one lane walked to
// its end, with the reader checked once, after the last field.
func (t *DecTable) Decode(r *ibits.Reader, dst []uint8, n int) ([]uint8, error) {
	if n == 0 {
		return dst, nil
	}
	r.Fill(uint(t.tableLog))
	state := uint32(r.Take(uint(t.tableLog)))
	for i := 1; i < n; i++ {
		e := t.entries[state]
		dst = append(dst, e.Sym)
		r.Fill(MaxTableLog)
		state = uint32(e.Base) + uint32(r.Take(uint(e.NbBits)))
	}
	dst = append(dst, t.entries[state].Sym)
	if err := r.Err(); err != nil {
		return dst, fmt.Errorf("%w: %v", ErrBadStream, err)
	}
	return dst, nil
}

// AppendNormKey appends a canonical byte encoding of (norm, tableLog) to
// dst: the tableLog, then each count varint-style with trailing zeros
// dropped. Two (norm, tableLog) pairs produce equal keys iff they build
// identical decode tables, so the key is usable as a memoization handle for
// NewDecTable results (zstdlite's decode-table cache).
func AppendNormKey(dst []byte, norm []int, tableLog int) []byte {
	dst = append(dst, byte(tableLog))
	n := len(norm)
	for n > 0 && norm[n-1] == 0 {
		n--
	}
	for i := 0; i < n; i++ {
		// Counts are bounded by 1<<MaxTableLog (4096): two bytes, little end
		// first, keeps the key compact and unambiguous.
		dst = append(dst, byte(norm[i]), byte(norm[i]>>8))
	}
	return dst
}

// WriteNorm serializes normalized counts: 8-bit alphabet size, 4-bit
// tableLog, then (tableLog+1)-bit counts per symbol.
func WriteNorm(w *ibits.Writer, norm []int, tableLog int) error {
	if err := checkNorm(norm, tableLog); err != nil {
		return err
	}
	n := len(norm)
	for n > 0 && norm[n-1] == 0 {
		n--
	}
	if n > 256 {
		return fmt.Errorf("%w: alphabet %d too large", ErrBadCounts, n)
	}
	w.WriteBits(uint64(n-1), 8)
	w.WriteBits(uint64(tableLog), 4)
	for i := 0; i < n; i++ {
		w.WriteBits(uint64(norm[i]), uint(tableLog+1))
	}
	return nil
}

// AppendReadNorm deserializes counts written by WriteNorm, appending them to
// dst, so a decoder reading a table per block can read it into a reused or
// stack buffer.
func AppendReadNorm(dst []int, r *ibits.Reader) (norm []int, tableLog int, err error) {
	n := int(r.ReadBits(8)) + 1
	tableLog = int(r.ReadBits(4))
	if tableLog < MinTableLog || tableLog > MaxTableLog {
		return nil, 0, fmt.Errorf("%w: %d", ErrBadTableLog, tableLog)
	}
	norm = dst
	for i := 0; i < n; i++ {
		norm = append(norm, int(r.ReadBits(uint(tableLog+1))))
	}
	if r.Err() != nil {
		return nil, 0, r.Err()
	}
	if err := checkNorm(norm, tableLog); err != nil {
		return nil, 0, err
	}
	return norm, tableLog, nil
}
