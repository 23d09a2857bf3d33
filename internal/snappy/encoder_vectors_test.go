package snappy

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"testing"

	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
)

// run is 1+n copies of b: under the default encoder, one literal byte and a
// match of n bytes at offset 1 (given a neighbour that is a different byte).
func run(b byte, n int) []byte { return bytes.Repeat([]byte{b}, 1+n) }

// atOffset places an 8-byte marker twice, off bytes apart, over a run of 'z':
// the second marker is an 8-byte match at exactly that offset, found at its
// first byte because the run before it is all matches and leaves the
// encoder's skip heuristic reset. Eight bytes fit a copy-1, so the offset
// alone picks the element.
func atOffset(off int) []byte {
	const marker = "01234567"
	return slices.Concat([]byte(marker), bytes.Repeat([]byte{'z'}, off-len(marker)), []byte(marker), []byte("tail"))
}

// TestEncoderVectors pins the bytes the default encoder emits for fixed
// inputs chosen to sit on every boundary of the element encodings — literal
// tags of 1, 2, 3 and 4 bytes (runs of 60/61, 256/257, 65536/65537), copy-1
// against copy-2 by length (4, 11 / 12) and by offset (2047 / 2048), the
// 64-byte split and its no-short-tail rule (64, 65, 67, 68, 128), copy-2
// against copy-4 (65535 / 65536) — and, on each, that the recorded Plan is
// AppendDecodeSeqs of those bytes element for element and that a size-only
// encode has the same length, tags and Plan.
func TestEncoderVectors(t *testing.T) {
	// Random bytes, under the first seed rule whose draws hold no 4-byte
	// repeat the encoder finds at any of the six lengths.
	random := func(n int) []byte { return corpus.Generate(corpus.Random, n, int64(n)+2) }
	lit := func(n int) lz77.Seq { return lz77.Seq{LitLen: n} }
	cp := func(off, n int) lz77.Seq { return lz77.Seq{Offset: off, MatchLen: n} }
	vectors := []struct {
		name  string
		input []byte
		// want is the emitted block (length header, tag, payload for the
		// single-literal vectors); where that is too long to write out,
		// wantSHA is its sha256 and wantSuffix its last bytes.
		want       []byte
		wantSHA    string
		wantSuffix []byte
		// has lists elements the block must contain; all, when exact is set.
		has   []lz77.Seq
		exact bool
	}{
		{name: "literal-60", input: random(60), want: slices.Concat([]byte{60}, []byte{59 << 2}, random(60)), has: []lz77.Seq{lit(60)}, exact: true},
		{name: "literal-61", input: random(61), want: slices.Concat([]byte{61}, []byte{60 << 2, 60}, random(61)), has: []lz77.Seq{lit(61)}, exact: true},
		{name: "literal-256", input: random(256), want: slices.Concat([]byte{0x80, 0x02}, []byte{60 << 2, 255}, random(256)), has: []lz77.Seq{lit(256)}, exact: true},
		{name: "literal-257", input: random(257), want: slices.Concat([]byte{0x81, 0x02}, []byte{61 << 2, 0x00, 0x01}, random(257)), has: []lz77.Seq{lit(257)}, exact: true},
		{name: "literal-65536", input: random(65536), want: slices.Concat([]byte{0x80, 0x80, 0x04}, []byte{61 << 2, 0xff, 0xff}, random(65536)), has: []lz77.Seq{lit(65536)}, exact: true},
		{name: "literal-65537", input: random(65537), want: slices.Concat([]byte{0x81, 0x80, 0x04}, []byte{62 << 2, 0x00, 0x00, 0x01}, random(65537)), has: []lz77.Seq{lit(65537)}, exact: true},
		{
			name: "copy-lengths",
			input: slices.Concat(run('a', 4), run('b', 11), run('c', 12), run('d', 64), run('e', 65),
				run('f', 67), run('g', 68), run('h', 128), []byte("tail")),
			want: []byte{
				0xaf, 0x03, // 431 bytes
				0x00, 'a', 0x01, 0x01, // copy-1: 4 bytes
				0x00, 'b', 0x1d, 0x01, // copy-1: 11 bytes, its longest
				0x00, 'c', 0x2e, 0x01, 0x00, // copy-2: 12 bytes
				0x00, 'd', 0xfe, 0x01, 0x00, // copy-2: 64 bytes, its longest
				0x00, 'e', 0xee, 0x01, 0x00, 0x05, 0x01, // 65 = 60 + 5, not 64 + 1
				0x00, 'f', 0xee, 0x01, 0x00, 0x0d, 0x01, // 67 = 60 + 7
				0x00, 'g', 0xfe, 0x01, 0x00, 0x01, 0x01, // 68 = 64 + 4
				0x00, 'h', 0xfe, 0x01, 0x00, 0xfe, 0x01, 0x00, // 128 = 64 + 64
				0x0c, 't', 'a', 'i', 'l',
			},
			has: []lz77.Seq{
				lit(1), cp(1, 4), lit(1), cp(1, 11), lit(1), cp(1, 12), lit(1), cp(1, 64),
				lit(1), cp(1, 60), cp(1, 5), lit(1), cp(1, 60), cp(1, 7), lit(1), cp(1, 64), cp(1, 4),
				lit(1), cp(1, 64), cp(1, 64), lit(4),
			},
			exact: true,
		},
		// The second marker and the tail: copy-1 (2 bytes) below offset 2048,
		// copy-2 (3 bytes) below 65536, copy-4 (5 bytes) at the window bound.
		{name: "offset-2047", input: atOffset(2047), wantSHA: "bf3e373828df8f55ac80b3d22a39876411b49785b3f536978e9e56b6e7fda5ef", wantSuffix: []byte{0xf1, 0xff, 0x0c, 't', 'a', 'i', 'l'}, has: []lz77.Seq{lit(9), cp(2047, 8)}},
		{name: "offset-2048", input: atOffset(2048), wantSHA: "91271a9c635dcc2b025f366c824d7b65f903864f49127dfedea15d5a562a07c2", wantSuffix: []byte{0x1e, 0x00, 0x08, 0x0c, 't', 'a', 'i', 'l'}, has: []lz77.Seq{lit(9), cp(2048, 8)}},
		{name: "offset-65535", input: atOffset(65535), wantSHA: "08c13154b5f2c339f2f2599596f27ee39e569d1b441a3c9b22908cf37600f7df", wantSuffix: []byte{0x1e, 0xff, 0xff, 0x0c, 't', 'a', 'i', 'l'}, has: []lz77.Seq{lit(9), cp(65535, 8)}},
		{name: "offset-65536", input: atOffset(65536), wantSHA: "ffdc0148ef090672abe6924688d804cb711fe6044e25de25a3919e1721d85ab8", wantSuffix: []byte{0x1f, 0x00, 0x00, 0x01, 0x00, 0x0c, 't', 'a', 'i', 'l'}, has: []lz77.Seq{lit(9), cp(65536, 8)}},
	}
	e, err := NewEncoder(EncoderConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vectors {
		t.Run(v.name, func(t *testing.T) {
			got, plan := e.AppendEncodeWithPlan(nil, v.input)
			if v.want != nil && !bytes.Equal(got, v.want) {
				t.Errorf("emitted %d bytes\n% x\nwant %d\n% x", len(got), trunc(got), len(v.want), trunc(v.want))
			}
			if sum := sha256.Sum256(got); v.want == nil && (hex.EncodeToString(sum[:]) != v.wantSHA || !bytes.HasSuffix(got, v.wantSuffix)) {
				t.Errorf("emitted %d bytes with sha256 %x ending % x, want %s ending % x", len(got), sum, got[max(0, len(got)-len(v.wantSuffix)):], v.wantSHA, v.wantSuffix)
			}
			if back, err := Decode(got); err != nil || !bytes.Equal(back, v.input) {
				t.Fatalf("the block does not decode to the input: %v", err)
			}
			seqs, _, n, err := AppendDecodeSeqs(nil, nil, got)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(v.input) || !slices.Equal(plan.Seqs, seqs) {
				t.Errorf("plan (%d elements) is not AppendDecodeSeqs of the block (%d bytes, %d elements)\nplan    %v\ndecoded %v",
					len(plan.Seqs), n, len(seqs), truncSeqs(plan.Seqs), truncSeqs(seqs))
			}
			if v.exact && !slices.Equal(seqs, v.has) {
				t.Errorf("elements %v, want %v", truncSeqs(seqs), v.has)
			}
			for _, want := range v.has {
				if !slices.Contains(seqs, want) {
					t.Errorf("no element %+v in %v", want, truncSeqs(seqs))
				}
			}

			// Size-only: same length, same tags (so the same elements parse
			// back out), same Plan; and the encoder leaves the mode when told.
			full := slices.Clone(plan.Seqs)
			e.SetSizeOnly(true)
			sized, sizedPlan := e.AppendEncodeWithPlan(nil, v.input)
			e.SetSizeOnly(false)
			if len(sized) != len(got) {
				t.Errorf("size-only block is %d bytes, the full one %d", len(sized), len(got))
			}
			if !slices.Equal(sizedPlan.Seqs, full) {
				t.Error("size-only plan differs from the full encode's")
			}
			if sizedSeqs, _, _, err := AppendDecodeSeqs(nil, nil, sized); err != nil || !slices.Equal(sizedSeqs, full) {
				t.Errorf("size-only block's tags parse to different elements (%v)", err)
			}
			if again := e.AppendEncode(nil, v.input); !bytes.Equal(again, got) {
				t.Error("a full encode after a size-only one differs from the first")
			}
		})
	}
}

func trunc(b []byte) []byte { return b[:min(len(b), 96)] }

func truncSeqs(s []lz77.Seq) string {
	if len(s) <= 24 {
		return fmt.Sprint(s)
	}
	return fmt.Sprint(s[:12], "…", s[len(s)-12:])
}
