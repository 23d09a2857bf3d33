// Package huffman implements canonical, length-limited Huffman coding over
// byte alphabets. It is the entropy-coding stage used by zstdlite's literal
// section and the functional model behind the CDPU's Huffman compressor and
// expander blocks (§5.3, §5.6 of the paper).
//
// Codes are canonical (assigned in (length, symbol) order) so a code table is
// fully described by its code lengths, which is how the wire formats ship it.
// Decoding uses a single-level lookup table indexed by MaxBits stream bits —
// the same structure the hardware's "Huff Table Reader" holds in SRAM.
package huffman

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"

	ibits "cdpu/internal/bits"
)

// MaxBitsLimit is the largest supported code length. 11 matches zstd's
// literal-table limit and keeps the hardware decode SRAM at 2^11 entries.
const MaxBitsLimit = 15

// ErrEmptyAlphabet is returned when no symbol has a nonzero frequency.
var ErrEmptyAlphabet = errors.New("huffman: empty alphabet")

// ErrBadLengths is returned when a set of code lengths is not a valid
// (complete or over-subscribed) Kraft assignment.
var ErrBadLengths = errors.New("huffman: invalid code lengths")

// CodeTable holds a canonical code assignment for symbols 0..NumSymbols-1.
type CodeTable struct {
	Lens    []uint8  // code length per symbol; 0 = symbol absent
	codes   []uint16 // canonical code per symbol, MSB-first convention
	MaxBits int      // largest code length present
}

// hnode is one tree node during code-length computation.
type hnode struct {
	freq        int
	sym         int // leaf symbol, -1 for internal
	left, right int // node indices
}

// hitem is one stack entry of the iterative depth assignment.
type hitem struct{ n, depth int }

// Builder constructs code tables into reusable scratch: the tree nodes, code
// lengths, canonical codes and the encoder's bit-reversed code array all live
// on the Builder and are recycled across Build calls, so a steady-state
// encode loop performs no allocation. The returned *CodeTable (and the
// Encoder from Encoder()) aliases the Builder and is valid until the next
// Build. Not safe for concurrent use.
type Builder struct {
	work      []int
	lens      []uint8
	nodes     []hnode
	leaves    []int
	internals []int
	stack     []hitem
	keys      []uint64
	table     CodeTable
	rev       []uint16
	enc       Encoder
}

// Build constructs a length-limited canonical code table from freqs. Symbols
// with zero frequency receive no code. maxBits bounds the code length
// (1..MaxBitsLimit). At least one symbol must have nonzero frequency; a
// single-symbol alphabet yields a 1-bit code.
func (b *Builder) Build(freqs []int, maxBits int) (*CodeTable, error) {
	if maxBits < 1 || maxBits > MaxBitsLimit {
		return nil, fmt.Errorf("huffman: maxBits %d out of range", maxBits)
	}
	if len(freqs) > 1<<maxBits {
		// A complete code over n symbols needs depth >= log2(n).
		nz := 0
		for _, f := range freqs {
			if f > 0 {
				nz++
			}
		}
		if nz > 1<<maxBits {
			return nil, fmt.Errorf("huffman: %d symbols cannot fit in %d-bit codes", nz, maxBits)
		}
	}
	b.work = append(b.work[:0], freqs...)
	work := b.work
	for attempt := 0; ; attempt++ {
		lens, err := b.lengths(work)
		if err != nil {
			return nil, err
		}
		over := false
		for _, l := range lens {
			if int(l) > maxBits {
				over = true
				break
			}
		}
		if !over {
			if err := canonicalInto(&b.table, lens); err != nil {
				return nil, err
			}
			return &b.table, nil
		}
		if attempt > 32 {
			return nil, fmt.Errorf("huffman: length limiting failed to converge")
		}
		// Flatten the distribution and retry; halving with a +1 floor
		// strictly reduces the ratio between extreme frequencies, so depth
		// shrinks toward log2(n) and the loop terminates.
		for i, f := range work {
			if f > 0 {
				work[i] = f/2 + 1
			}
		}
	}
}

// Encoder returns an encoder for the table the last Build produced, reusing
// the Builder's reversed-code scratch. Valid until the next Build.
func (b *Builder) Encoder() *Encoder {
	b.rev = fillRev(b.rev, &b.table)
	b.enc = Encoder{table: &b.table, rev: b.rev}
	return &b.enc
}

// lengths computes unrestricted Huffman code lengths via pairwise merging
// (heap-free two-queue method over sorted leaves), into b's scratch.
func (b *Builder) lengths(freqs []int) ([]uint8, error) {
	nodes := b.nodes[:0]
	leaves := b.leaves[:0]
	maxFreq := 0
	for s, f := range freqs {
		if f > 0 {
			nodes = append(nodes, hnode{freq: f, sym: s, left: -1, right: -1})
			leaves = append(leaves, len(nodes)-1)
			maxFreq = max(maxFreq, f)
		}
	}
	if cap(b.lens) >= len(freqs) {
		b.lens = b.lens[:len(freqs)]
		clear(b.lens)
	} else {
		b.lens = make([]uint8, len(freqs))
	}
	lens := b.lens
	if len(leaves) == 0 {
		b.nodes, b.leaves = nodes, leaves
		return nil, ErrEmptyAlphabet
	}
	if len(leaves) == 1 {
		lens[nodes[leaves[0]].sym] = 1
		b.nodes, b.leaves = nodes, leaves
		return lens, nil
	}
	b.sortLeaves(leaves, nodes, maxFreq)
	// Two-queue merge: leaves (sorted) and internal nodes (produced in
	// non-decreasing freq order).
	internals := b.internals[:0]
	li, ii := 0, 0
	pop := func() int {
		if li < len(leaves) && (ii >= len(internals) || nodes[leaves[li]].freq <= nodes[internals[ii]].freq) {
			li++
			return leaves[li-1]
		}
		ii++
		return internals[ii-1]
	}
	remaining := len(leaves)
	for remaining > 1 {
		x := pop()
		y := pop()
		nodes = append(nodes, hnode{freq: nodes[x].freq + nodes[y].freq, sym: -1, left: x, right: y})
		internals = append(internals, len(nodes)-1)
		remaining--
	}
	root := pop()
	// Iterative depth assignment.
	stack := append(b.stack[:0], hitem{root, 0})
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := nodes[it.n]
		if nd.sym >= 0 {
			d := it.depth
			if d == 0 {
				d = 1
			}
			lens[nd.sym] = uint8(d)
			continue
		}
		stack = append(stack, hitem{nd.left, it.depth + 1}, hitem{nd.right, it.depth + 1})
	}
	b.nodes, b.leaves, b.internals, b.stack = nodes, leaves, internals, stack
	return lens, nil
}

// sortLeaves orders leaf node indices by (freq, symbol), a total order, so
// any correct sort yields the same sequence. Leaves are numbered in symbol
// order, which makes (freq, index) the same order; when both fit one uint64
// the leaves sort as packed keys, otherwise by comparison.
func (b *Builder) sortLeaves(leaves []int, nodes []hnode, maxFreq int) {
	shift, ok := packShift(len(leaves), maxFreq)
	if !ok {
		slices.SortFunc(leaves, func(x, y int) int {
			if c := cmp.Compare(nodes[x].freq, nodes[y].freq); c != 0 {
				return c
			}
			return x - y
		})
		return
	}
	keys := b.keys[:0]
	for _, l := range leaves {
		keys = append(keys, uint64(nodes[l].freq)<<shift|uint64(l))
	}
	slices.Sort(keys)
	mask := uint64(1)<<shift - 1
	for i, k := range keys {
		leaves[i] = int(k & mask)
	}
	b.keys = keys
}

// packShift returns how far a frequency is shifted to pack it above a leaf
// index below n, and whether frequencies up to maxFreq still fit in a uint64.
func packShift(n, maxFreq int) (shift uint, ok bool) {
	shift = uint(bits.Len(uint(n - 1)))
	return shift, bits.Len(uint(maxFreq))+int(shift) <= 64
}

// FromLengths builds a canonical table from code lengths, validating the
// Kraft inequality (the assignment must not be over-subscribed, and must be
// complete unless only one symbol is present).
func FromLengths(lens []uint8) (*CodeTable, error) {
	t := &CodeTable{}
	if err := canonicalInto(t, lens); err != nil {
		return nil, err
	}
	return t, nil
}

// canonicalInto fills t with the canonical assignment for lens, reusing t's
// slices. lens is copied, so it may alias caller scratch.
func canonicalInto(t *CodeTable, lens []uint8) error {
	maxBits := 0
	nz := 0
	for _, l := range lens {
		if int(l) > maxBits {
			maxBits = int(l)
		}
		if l > 0 {
			nz++
		}
	}
	if nz == 0 {
		return ErrEmptyAlphabet
	}
	if maxBits > MaxBitsLimit {
		return fmt.Errorf("%w: length %d exceeds limit", ErrBadLengths, maxBits)
	}
	// Kraft sum in units of 2^-maxBits.
	var kraft uint64
	for _, l := range lens {
		if l > 0 {
			kraft += 1 << (maxBits - int(l))
		}
	}
	full := uint64(1) << maxBits
	if kraft > full {
		return fmt.Errorf("%w: oversubscribed", ErrBadLengths)
	}
	if kraft < full && nz > 1 {
		return fmt.Errorf("%w: incomplete", ErrBadLengths)
	}
	// Canonical assignment: firstCode[l] advances through (length, symbol).
	var countPerLen [MaxBitsLimit + 1]int
	for _, l := range lens {
		countPerLen[l]++
	}
	// Standard canonical recurrence: codes for length l start where the
	// previous length's codes ended, left-shifted one bit.
	var nextCode [MaxBitsLimit + 2]uint16
	code := uint16(0)
	for l := 1; l <= maxBits; l++ {
		nextCode[l] = code
		code = (code + uint16(countPerLen[l])) << 1
	}
	var codes []uint16
	if cap(t.codes) >= len(lens) {
		codes = t.codes[:len(lens)]
		clear(codes)
	} else {
		codes = make([]uint16, len(lens))
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		codes[s] = nextCode[l]
		nextCode[l]++
	}
	t.Lens = append(t.Lens[:0], lens...)
	t.codes = codes
	t.MaxBits = maxBits
	return nil
}

// Encoder writes symbols under a code table.
type Encoder struct {
	table *CodeTable
	// rev holds bit-reversed codes so emission is LSB-first.
	rev []uint16
}

// fillRev writes the bit-reversed code array for t into buf (grown as
// needed) and returns it.
func fillRev(buf []uint16, t *CodeTable) []uint16 {
	if cap(buf) >= len(t.codes) {
		buf = buf[:len(t.codes)]
		clear(buf)
	} else {
		buf = make([]uint16, len(t.codes))
	}
	for s, l := range t.Lens {
		if l == 0 {
			continue
		}
		buf[s] = uint16(bits.Reverse16(t.codes[s]) >> (16 - l))
	}
	return buf
}

// Encode appends the code for each byte of data to w. It returns an error if
// a byte has no code (caller supplied a table built from other data).
func (e *Encoder) Encode(w *ibits.Writer, data []byte) error {
	for _, b := range data {
		l := e.table.Lens[b]
		if l == 0 {
			return fmt.Errorf("huffman: symbol %#x has no code", b)
		}
		w.WriteBits(uint64(e.rev[b]), uint(l))
	}
	return nil
}

// Decoder performs table-driven decoding: one MaxBits-wide peek resolves any
// symbol, mirroring the hardware decode-table SRAM. A built Decoder is
// immutable: Decode only reads the table, so one Decoder may serve any number
// of goroutines concurrently — which is what lets zstdlite memoize decoders
// behind a shared cache.
type Decoder struct {
	table   []uint16 // packed entries: sym<<4 | len
	maxBits int
}

// NewDecoder builds the lookup table for t.
func NewDecoder(t *CodeTable) *Decoder {
	d := &Decoder{maxBits: t.MaxBits, table: make([]uint16, 1<<t.MaxBits)}
	for s, l := range t.Lens {
		if l == 0 {
			continue
		}
		revCode := uint32(bits.Reverse16(t.codes[s]) >> (16 - l))
		step := 1 << l
		for idx := int(revCode); idx < len(d.table); idx += step {
			d.table[idx] = uint16(s)<<4 | uint16(l)
		}
	}
	return d
}

// MaxBits reports the widest code length the table resolves (the peek width).
func (d *Decoder) MaxBits() int { return d.maxBits }

// Decode reads n symbols from r into dst, returning dst. While the stream
// holds a whole batch, it refills once per batch — as many symbols as 56 bits
// cover at MaxBits each — and takes the batch's codes unchecked; the tail
// checks every symbol against the bits left.
func (d *Decoder) Decode(r *ibits.Reader, dst []byte, n int) ([]byte, error) {
	mb := uint(d.maxBits)
	batch := 56 / d.maxBits
	i := 0
	for n-i >= batch && r.BitsRemaining() >= batch*d.maxBits {
		r.Fill(56)
		for end := i + batch; i < end; i++ {
			entry := d.table[r.Peek(mb)]
			l := uint(entry & 0xf)
			if l == 0 {
				return dst, fmt.Errorf("huffman: invalid code at symbol %d", i)
			}
			r.Take(l)
			dst = append(dst, byte(entry>>4))
		}
	}
	for ; i < n; i++ {
		r.Fill(mb)
		entry := d.table[r.Peek(mb)]
		l := uint(entry & 0xf)
		if l == 0 {
			return dst, fmt.Errorf("huffman: invalid code at symbol %d", i)
		}
		if r.BitsRemaining() < int(l) {
			return dst, ibits.ErrOverread
		}
		r.Take(l)
		dst = append(dst, byte(entry>>4))
	}
	return dst, nil
}

// WriteTable serializes the table's code lengths to w: a 9-bit symbol count
// followed by 4-bit lengths. FromLengths-compatible.
func (t *CodeTable) WriteTable(w *ibits.Writer) {
	n := len(t.Lens)
	for n > 0 && t.Lens[n-1] == 0 {
		n--
	}
	w.WriteBits(uint64(n), 9)
	for i := 0; i < n; i++ {
		w.WriteBits(uint64(t.Lens[i]), 4)
	}
}

// AppendReadLengths reads the serialized code lengths of a WriteTable header,
// appending them to dst; FromLengths rebuilds the table from them. The
// lengths are the table's full canonical description, so callers can key a
// decoder cache on them before paying for FromLengths + NewDecoder (zstdlite's
// memoized decode tables do exactly this); the lengths are not validated
// until FromLengths runs.
func AppendReadLengths(dst []uint8, r *ibits.Reader) ([]uint8, error) {
	n := int(r.ReadBits(9))
	if n == 0 || n > 256 {
		return nil, fmt.Errorf("%w: %d symbols", ErrBadLengths, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, uint8(r.ReadBits(4)))
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	return dst, nil
}
