package comp

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cdpu/internal/corpus"
)

// TestCoderMatchesCompressCall pins the Coder's contract: reusing encoders
// across calls must produce byte-identical output to the one-shot path, for
// every algorithm and across repeated calls (stale encoder state would show
// up on the second round).
func TestCoderMatchesCompressCall(t *testing.T) {
	c := NewCoder()
	payloads := [][]byte{
		corpus.Generate(corpus.Text, 32<<10, 1),
		corpus.Generate(corpus.JSON, 8<<10, 2),
		corpus.Generate(corpus.Log, 48<<10, 3),
		nil,
	}
	for round := 0; round < 2; round++ {
		for _, a := range Algorithms {
			for _, src := range payloads {
				level := a.DefaultLevel()
				want, err := CompressCall(a, level, 0, src)
				if err != nil {
					t.Fatalf("%v: %v", a, err)
				}
				got, err := c.AppendCompress(nil, a, level, 0, src)
				if err != nil {
					t.Fatalf("%v: %v", a, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("round %d %v: coder output differs from CompressCall (%d vs %d bytes)",
						round, a, len(got), len(want))
				}
				back, err := DecompressCall(a, got)
				if err != nil {
					t.Fatalf("%v: decode: %v", a, err)
				}
				if !bytes.Equal(back, src) {
					t.Fatalf("round %d %v: round trip mismatch", round, a)
				}
			}
		}
	}
}

// snapshotPlan copies what a Plan aliases out of the pooled encoder's scratch,
// so it can be compared after the next compression.
func snapshotPlan(p Plan) Plan {
	if p.ZStd != nil {
		z := *p.ZStd
		z.Blocks = slices.Clone(z.Blocks)
		for i := range z.Blocks {
			z.Blocks[i].Seqs = slices.Clone(z.Blocks[i].Seqs)
		}
		p.ZStd = &z
	}
	if p.Snappy != nil {
		sn := *p.Snappy
		sn.Seqs = slices.Clone(sn.Seqs)
		p.Snappy = &sn
	}
	return p
}

// TestCoderSizeOnlyMatchesFullLengthAndPlan pins the size-only fast path at
// the Coder layer: for every algorithm, AppendCompressSizeOnly emits a frame
// of exactly the full path's byte length with an equal Plan (ZStd's for the
// zstdlite family, Snappy's for Snappy, none otherwise), the encoder pool is
// not left in size-only mode afterwards, and frames without a plan remain
// fully decodable. AppendCompressPlanSizeOnly, which hands out only the ZStd
// plan, keeps Snappy frames decodable as well.
func TestCoderSizeOnlyMatchesFullLengthAndPlan(t *testing.T) {
	c := NewCoder()
	src := corpus.Generate(corpus.Log, 48<<10, 7)
	for round := 0; round < 2; round++ {
		for _, a := range Algorithms {
			level := a.DefaultLevel()
			want, p, err := c.AppendCompressPlan(nil, a, level, 0, src)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			wantPlan := snapshotPlan(p)
			if zstdFamily := a == ZStd || a == Flate || a == Brotli; (wantPlan.ZStd != nil) != zstdFamily ||
				(wantPlan.Snappy != nil) != (a == Snappy) || wantPlan.IsZero() != (a == Gipfeli || a == LZO) {
				t.Fatalf("%v: wrong plan kind %+v", a, wantPlan)
			}
			got, gotPlan, err := c.AppendCompressSizeOnly(nil, a, level, 0, src)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if len(got) != len(want) {
				t.Fatalf("round %d %v: size-only frame %d bytes, full %d", round, a, len(got), len(want))
			}
			if !reflect.DeepEqual(snapshotPlan(gotPlan), wantPlan) {
				t.Fatalf("round %d %v: size-only plan differs from the full encode's", round, a)
			}
			if gotPlan.IsZero() && !bytes.Equal(got, want) { // no plan: the frame must stay real
				t.Fatalf("round %d %v: size-only path changed a frame that has no plan", round, a)
			}
			legacy, zplan, err := c.AppendCompressPlanSizeOnly(nil, a, level, 0, src)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if len(legacy) != len(want) || !reflect.DeepEqual(snapshotPlan(Plan{ZStd: zplan}).ZStd, wantPlan.ZStd) {
				t.Fatalf("round %d %v: AppendCompressPlanSizeOnly: %d bytes (full %d) or a different ZStd plan", round, a, len(legacy), len(want))
			}
			if zplan == nil && !bytes.Equal(legacy, want) {
				t.Fatalf("round %d %v: AppendCompressPlanSizeOnly returned no ZStd plan and not the full frame", round, a)
			}
			// The pooled encoder must leave size-only mode: the next full
			// compression through the same Coder has to be decodable.
			full, err := c.AppendCompress(nil, a, level, 0, src)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			back, err := DecompressCall(a, full)
			if err != nil {
				t.Fatalf("round %d %v: full encode after size-only does not decode: %v", round, a, err)
			}
			if !bytes.Equal(back, src) {
				t.Fatalf("round %d %v: round trip mismatch after size-only", round, a)
			}
		}
	}
}

// TestCoderAppendsToDst verifies the append contract (prefix preserved).
func TestCoderAppendsToDst(t *testing.T) {
	c := NewCoder()
	prefix := []byte("hdr:")
	src := corpus.Generate(corpus.Table, 4<<10, 9)
	out, err := c.AppendCompress(append([]byte(nil), prefix...), ZStd, 3, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("prefix clobbered")
	}
	want, _ := CompressCall(ZStd, 3, 0, src)
	if !bytes.Equal(out[len(prefix):], want) {
		t.Fatal("appended payload differs")
	}
}
