package zstdlite

import (
	"testing"

	"cdpu/internal/corpus"
)

// BenchmarkDecode measures a full frame decode, Inspect (the entropy stage)
// then materialize (the LZ77 copies), per corpus kind and payload size, on
// frames of the default encoder. SetBytes counts decoded bytes.
func BenchmarkDecode(b *testing.B) {
	sizes := []struct {
		name string
		n    int
	}{{"4K", 4 << 10}, {"64K", 64 << 10}, {"1M", 1 << 20}}
	for _, kind := range []corpus.Kind{corpus.Text, corpus.Log, corpus.JSON, corpus.Protobuf, corpus.Skewed, corpus.Random} {
		b.Run(kind.String(), func(b *testing.B) {
			for _, size := range sizes {
				b.Run(size.name, func(b *testing.B) {
					src := corpus.Generate(kind, size.n, 6)
					frame := Encode(src)
					b.SetBytes(int64(len(src)))
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := Decode(frame); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// TestInspectAllocs pins what Inspect allocates: per frame the FrameInfo and
// the growth of its Blocks slice, and per compressed block its decoded
// literals and its sequences. The sequence codes go straight into the
// sequences and the normalized counts are read into a stack buffer, so
// nothing else is allocated per block.
func TestInspectAllocs(t *testing.T) {
	for _, disableFSE := range []bool{false, true} {
		e, err := NewEncoder(Params{DisableFSE: disableFSE})
		if err != nil {
			t.Fatal(err)
		}
		frame := e.Encode(corpus.Generate(corpus.Log, 5*MaxBlockSize, 28))
		info, err := Inspect(frame)
		if err != nil {
			t.Fatal(err)
		}
		want, blocks := 1, []BlockInfo(nil)
		for _, b := range info.Blocks {
			if len(blocks) == cap(blocks) {
				want++
			}
			blocks = append(blocks, b)
			if !b.IsCompressed() || b.LitMode != litHuffman || b.NumSeqs == 0 {
				t.Fatalf("disableFSE=%v: block %+v is not a Huffman-literal block with sequences", disableFSE, b.SeqModes)
			}
			want += 2
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := Inspect(frame); err != nil {
				t.Fatal(err)
			}
		})
		if int(got) != want {
			t.Errorf("disableFSE=%v: Inspect of %d blocks allocates %v times, want %d", disableFSE, len(info.Blocks), got, want)
		}
	}
}

// TestDecodeAllocs pins what Decode allocates: Inspect's allocations (see
// TestInspectAllocs) and one output, at every size. The slack the blocks are
// replayed into is reserved with the output and never costs a second.
func TestDecodeAllocs(t *testing.T) {
	for _, c := range []struct {
		kind corpus.Kind
		size int
		want float64
	}{
		{corpus.Log, 4 << 10, 5},
		{corpus.Log, 64 << 10, 5},
		{corpus.Log, 1 << 20, 22}, // eight compressed blocks
		{corpus.Random, 4 << 10, 3},
		{corpus.Random, 64 << 10, 3},
		{corpus.Random, 1 << 20, 6}, // eight raw blocks
	} {
		frame := Encode(corpus.Generate(c.kind, c.size, 30))
		got := testing.AllocsPerRun(10, func() {
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("Decode of %v/%d allocates %v times, want %v", c.kind, c.size, got, c.want)
		}
	}
}
