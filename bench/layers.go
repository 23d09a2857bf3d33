package main

import (
	mbits "math/bits"

	"cdpu/internal/bits"
	"cdpu/internal/comp"
	"cdpu/internal/fse"
	"cdpu/internal/huffman"
	"cdpu/internal/lz77"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// kit replays the inner layers of a codec call from outside. The codecs call
// lz77, huffman, fse and bits internally, where no span can be put without
// editing them; the kit instead runs each inner layer once more, directly, on
// the same input and records it as a replayed child of the codec span.
//
// All its methods are no-ops on a nil tracer, so one shadow pipeline serves
// the traced and the untraced pass.
type kit struct {
	tr *tracer

	snap *snappy.Encoder
	zstd *zstdlite.Encoder
	// hw is the device's dictionary stage (64 KiB window, 2^14 direct-mapped
	// entries), which is also Snappy's; sw is zstdlite's level-3 stage.
	hw, sw *lz77.Matcher

	hb    huffman.Builder
	bw    *bits.Writer
	freqs []int
	syms  []uint8
	lits  []byte
	frame []byte // the last replayed encode's output
	out   []byte // decode scratch
	seqs  []lz77.Seq
}

func newKit(tr *tracer) (*kit, error) {
	k := &kit{tr: tr, bw: bits.NewWriter(1 << 16), freqs: make([]int, 256)}
	var err error
	if k.snap, err = snappy.NewEncoder(snappy.EncoderConfig{}); err != nil {
		return nil, err
	}
	if k.zstd, err = zstdlite.NewEncoder(zstdlite.Params{Level: 3, WindowLog: 17}); err != nil {
		return nil, err
	}
	k.hw, err = lz77.NewMatcher(lz77.Config{WindowSize: 64 << 10, TableEntries: 1 << 14, Associativity: 1, MinMatch: 4})
	if err != nil {
		return nil, err
	}
	k.sw, err = lz77.NewMatcher(lz77.Config{
		WindowSize: 1 << 17, TableEntries: 1 << 15, Associativity: 2, MinMatch: 4,
		Contents: lz77.ContentsOffsetAndTag, Lazy: true,
	})
	return k, err
}

// lzStats sums the dictionary-stage counters of both matchers since newKit.
func (k *kit) lzStats() lz77.Stats {
	a, b := k.hw.Stats(), k.sw.Stats()
	a.WaysChecked += b.WaysChecked
	a.FalseProbes += b.FalseProbes
	a.MatchBytes += b.MatchBytes
	a.LiteralBytes += b.LiteralBytes
	return a
}

// encodeChildren records, under parent, what a compression of plain did
// inside: the codec's own encoder, and below it the parse and (ZStd) the
// entropy stages. device selects the device's dictionary stage over the
// software one for the ZStd parse. It returns the replayed encoder's frame,
// valid until the next encodeChildren.
func (k *kit) encodeChildren(parent, call int, algo comp.Algorithm, device bool, plain []byte) []byte {
	if k.tr == nil {
		return nil
	}
	tr := k.tr
	m := k.hw
	if algo == comp.Snappy {
		id := tr.begin(parent, call, "snappy", "snappy.encode", true)
		k.frame = k.snap.AppendEncode(k.frame[:0], plain)
		tr.end(id, len(plain))
		parent = id
	} else {
		id := tr.begin(parent, call, "zstdlite", "zstdlite.encode", true)
		k.frame = k.zstd.AppendEncode(k.frame[:0], plain)
		tr.end(id, len(plain))
		parent = id
		if !device {
			m = k.sw
		}
	}
	id := tr.begin(parent, call, "lz77", "lz77.parse", true)
	seqs := m.Parse(plain)
	tr.end(id, len(plain))
	if algo == comp.ZStd {
		k.lits = lz77.AppendLiteralsAt(k.lits[:0], plain, 0, seqs)
		k.entropy(parent, call, k.lits, seqs, true)
	}
	return k.frame
}

// sizeOnlyChild records the size-only ZStd encode the replay uses to
// synthesize a decompression call's input.
func (k *kit) sizeOnlyChild(parent, call int, plain []byte) {
	if k.tr == nil {
		return
	}
	id := k.tr.begin(parent, call, "zstdlite", "zstdlite.encode_size_only", true)
	k.zstd.SetSizeOnly(true)
	k.out = k.zstd.AppendEncode(k.out[:0], plain)
	k.zstd.SetSizeOnly(false)
	k.tr.end(id, len(plain))
}

// decodeChildren records, under parent, what a decompression of frame did
// inside. It returns false when the frame does not decode.
func (k *kit) decodeChildren(parent, call int, algo comp.Algorithm, frame []byte) bool {
	if k.tr == nil {
		return true
	}
	tr := k.tr
	if algo == comp.Snappy {
		id := tr.begin(parent, call, "snappy", "snappy.decode", true)
		out, err := snappy.Decode(frame)
		tr.end(id, len(out))
		if err != nil {
			return false
		}
		var n int
		k.seqs, k.lits, n, err = snappy.AppendDecodeSeqs(k.seqs[:0], k.lits[:0], frame)
		if err != nil {
			return false
		}
		return k.reconstruct(id, call, k.seqs, k.lits, n)
	}
	id := tr.begin(parent, call, "zstdlite", "zstdlite.decode", true)
	out, err := zstdlite.Decode(frame)
	tr.end(id, len(out))
	if err != nil {
		return false
	}
	info, err := zstdlite.Inspect(frame)
	if err != nil {
		return false
	}
	k.seqs, k.lits = k.seqs[:0], k.lits[:0]
	for i := range info.Blocks {
		b := &info.Blocks[i]
		if len(b.Seqs) == 0 {
			continue // raw and RLE blocks carry no entropy-coded sections
		}
		k.entropy(id, call, b.Literals, b.Seqs, false)
		k.seqs = append(k.seqs, b.Seqs...)
		k.lits = append(k.lits, b.Literals...)
	}
	return k.reconstruct(id, call, k.seqs, k.lits, lz77.TotalLen(k.seqs))
}

func (k *kit) reconstruct(parent, call int, seqs []lz77.Seq, lits []byte, n int) bool {
	id := k.tr.begin(parent, call, "lz77", "lz77.reconstruct", true)
	out, err := lz77.AppendReconstruct(k.out[:0], seqs, lits, 0)
	k.out = out
	k.tr.end(id, n)
	return err == nil
}

// entropy replays the entropy stages of one block: a Huffman table over the
// literals, one FSE table over the sequences' length and offset codes, and
// the raw extra bits. encode selects which direction is timed; the other
// direction still runs, unspanned, to produce its input.
func (k *kit) entropy(parent, call int, lits []byte, seqs []lz77.Seq, encode bool) {
	tr := k.tr
	if len(lits) > 0 {
		clear(k.freqs)
		for _, b := range lits {
			k.freqs[b]++
		}
		id := tr.begin(parent, call, "huffman", "huffman.build", true)
		tbl, err := k.hb.Build(k.freqs, 11)
		tr.end(id, len(lits))
		if err != nil {
			return
		}
		k.bw.Reset()
		if encode {
			id = tr.begin(parent, call, "huffman", "huffman.encode", true)
		}
		err = k.hb.Encoder().Encode(k.bw, lits)
		if encode {
			tr.end(id, len(lits))
		}
		if err != nil {
			return
		}
		if !encode {
			dec := huffman.NewDecoder(tbl)
			r := bits.NewReader(k.bw.Bytes())
			id = tr.begin(parent, call, "huffman", "huffman.decode", true)
			k.out, _ = dec.Decode(r, k.out[:0], len(lits))
			tr.end(id, len(lits))
		}
	}

	// Sequence codes: the bit length of each field, as ZStd's code tables
	// bucket them; the field's low bits travel as raw extra bits.
	k.syms = k.syms[:0]
	var hist [64]int
	for _, s := range seqs {
		for _, v := range [3]int{s.LitLen, s.MatchLen, s.Offset} {
			c := uint8(mbits.Len(uint(v)))
			k.syms = append(k.syms, c)
			hist[c]++
		}
	}
	if len(k.syms) == 0 {
		return
	}
	k.bw.Reset()
	if encode {
		id := tr.begin(parent, call, "bits", "bits.write", true)
		for _, s := range seqs {
			for _, v := range [3]int{s.LitLen, s.MatchLen, s.Offset} {
				k.bw.WriteBits(uint64(v), uint(mbits.Len(uint(v))))
			}
		}
		tr.end(id, len(k.bw.Bytes()))
	} else {
		for _, s := range seqs {
			for _, v := range [3]int{s.LitLen, s.MatchLen, s.Offset} {
				k.bw.WriteBits(uint64(v), uint(mbits.Len(uint(v))))
			}
		}
		buf := k.bw.Bytes()
		r := bits.NewReader(buf)
		id := tr.begin(parent, call, "bits", "bits.read", true)
		for _, c := range k.syms {
			r.ReadBits(uint(c))
		}
		tr.end(id, len(buf))
	}

	norm, err := fse.Normalize(hist[:], 9)
	if err != nil {
		return // one code only: ZStd would RLE the stream, no table is built
	}
	k.bw.Reset()
	var id int
	if encode {
		id = tr.begin(parent, call, "fse", "fse.encode", true)
	}
	et, err := fse.NewEncTable(norm, 9)
	if err == nil {
		err = et.Encode(k.bw, k.syms)
	}
	if encode {
		tr.end(id, len(k.syms))
	}
	if err != nil || encode {
		return
	}
	r := bits.NewReader(k.bw.Bytes())
	id = tr.begin(parent, call, "fse", "fse.decode", true)
	if dt, err := fse.NewDecTable(norm, 9); err == nil {
		k.syms, _ = dt.Decode(r, k.syms[:0], len(k.syms))
	}
	tr.end(id, len(k.syms))
}
