package comp

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"cdpu/internal/corpus"
)

// TestCoderMatchesCompressCall pins the reuse contract against a Coder built
// for one call: a Coder kept across calls, and CompressCall's leased one,
// must produce its bytes for every algorithm, over an interleaved sequence of
// (algorithm, level, window log). The payload each call gets rotates from
// pass to pass, so every configuration meets every payload, the empty one
// included, twice, each time on an encoder the other configurations and
// payloads have been through (stale encoder state would show up there). The
// sequence holds every algorithm at its default and more zstdlite
// configurations than a pooled Coder may keep, so the lease is also dropped
// and rebuilt on the way. SizeCall must report the same frame's length.
func TestCoderMatchesCompressCall(t *testing.T) {
	c := NewCoder()
	payloads := [][]byte{
		corpus.Generate(corpus.Text, 32<<10, 1),
		corpus.Generate(corpus.JSON, 8<<10, 2),
		corpus.Generate(corpus.Log, 48<<10, 3),
		nil,
	}
	calls := []zstdKey{
		{Snappy, 0, 0}, {ZStd, 3, 0}, {Gipfeli, 0, 0}, {ZStd, 1, 17}, {Flate, 3, 0}, {Snappy, 0, 0},
		{ZStd, 12, 20}, {LZO, 1, 0}, {Brotli, 2, 0}, {ZStd, 3, 0}, {ZStd, 19, 0}, {Flate, 9, 0}, {ZStd, -3, 0},
	}
	zstds := map[zstdKey]bool{}
	for _, k := range calls {
		if k.algo.Heavyweight() { // the zstdlite-backed three
			zstds[k] = true
		}
	}
	if len(zstds) <= maxPooledEncoders {
		t.Fatalf("the sequence has %d zstdlite configurations, too few to overflow a pooled Coder (%d)", len(zstds), maxPooledEncoders)
	}
	for _, a := range Algorithms {
		if !slices.Contains(calls, zstdKey{a, a.DefaultLevel(), 0}) {
			t.Fatalf("the sequence does not hold %v at its default level", a)
		}
	}
	for pass := 0; pass < 2*len(payloads); pass++ {
		for i, k := range calls {
			src := payloads[(pass+i)%len(payloads)]
			want, err := new(Coder).AppendCompress(nil, k.algo, k.level, k.windowLog, src)
			if err != nil {
				t.Fatalf("%+v: %v", k, err)
			}
			got, err := c.AppendCompress(nil, k.algo, k.level, k.windowLog, src)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d %+v: reused Coder differs from a fresh one (%d vs %d bytes, %v)", pass, k, len(got), len(want), err)
			}
			got, err = CompressCall(k.algo, k.level, k.windowLog, src)
			if err != nil || !bytes.Equal(got, want) {
				t.Fatalf("pass %d %+v: CompressCall differs from a fresh Coder (%d vs %d bytes, %v)", pass, k, len(got), len(want), err)
			}
			if n, err := SizeCall(k.algo, k.level, k.windowLog, src); err != nil || n != len(want) {
				t.Fatalf("pass %d %+v: SizeCall %d, %v; the frame has %d bytes", pass, k, n, err, len(want))
			}
			back, err := DecompressCall(k.algo, got)
			if err != nil || !bytes.Equal(back, src) {
				t.Fatalf("pass %d %+v: round trip: %v", pass, k, err)
			}
		}
	}
}

// TestCompressCallFrameIsTheCallers: the frame CompressCall returns shares no
// memory with the pooled Coder that produced it. A later call does not write
// into a frame returned earlier, and scribbling over a returned frame (through
// its whole capacity) does not reach the next call's.
func TestCompressCallFrameIsTheCallers(t *testing.T) {
	src, other := corpus.Generate(corpus.Log, 16<<10, 4), corpus.Generate(corpus.Text, 16<<10, 5)
	for _, a := range Algorithms {
		compress := func(src []byte) []byte {
			frame, err := CompressCall(a, a.DefaultLevel(), 0, src)
			if err != nil {
				t.Fatal(err)
			}
			return frame
		}
		first := compress(src)
		want := bytes.Clone(first)
		second := compress(other)
		if !bytes.Equal(first, want) {
			t.Errorf("%v: the next call wrote into a frame already returned", a)
		}
		second = second[:cap(second)]
		for i := range second {
			second[i] ^= 0xA5
		}
		if !bytes.Equal(compress(src), want) {
			t.Errorf("%v: overwriting a returned frame changed the next call's", a)
		}
	}
}

// TestPooledCoderIsBounded holds the pool comment's two bounds: a Coder goes
// back with up to maxPooledEncoders zstdlite encoders and after a payload of
// up to maxPooledPayload, and not beyond either; Gipfeli and LZO, which never
// lease, leave nothing on a Coder to retain.
func TestPooledCoderIsBounded(t *testing.T) {
	c := NewCoder()
	src := corpus.Generate(corpus.JSON, 1<<10, 6)
	for _, a := range []Algorithm{Snappy, Gipfeli, LZO} {
		if _, err := c.AppendCompress(nil, a, 0, 0, src); err != nil {
			t.Fatal(err)
		}
	}
	for level := 1; level <= maxPooledEncoders+1; level++ {
		if !c.poolable(maxPooledPayload) || c.poolable(maxPooledPayload+1) {
			t.Fatalf("%d encoders: poolable is %v at the payload bound and %v above it", len(c.zstd),
				c.poolable(maxPooledPayload), c.poolable(maxPooledPayload+1))
		}
		if _, err := c.AppendCompress(nil, ZStd, level, 0, src); err != nil {
			t.Fatal(err)
		}
		if len(c.zstd) != level {
			t.Fatalf("after %d zstdlite levels the Coder holds %d encoders", level, len(c.zstd))
		}
	}
	if c.poolable(0) {
		t.Fatalf("a Coder holding %d encoders would still be pooled", len(c.zstd))
	}
}

// TestCompressCallSteadyStateAllocs is the lease's point as a ceiling: once a
// Coder for the configuration is pooled, a one-shot call allocates the frame
// it returns and nothing else (a Coder built per call allocated its match
// table, its encoder and every scratch slice: dozens of objects).
func TestCompressCallSteadyStateAllocs(t *testing.T) {
	if poolDropsPuts {
		t.Skip("under the race detector sync.Pool drops a quarter of its Puts on purpose")
	}
	src := corpus.Generate(corpus.JSON, 4<<10, 5)
	for _, k := range []zstdKey{{Snappy, 0, 0}, {ZStd, 3, 0}} {
		call := func() {
			if _, err := CompressCall(k.algo, k.level, k.windowLog, src); err != nil {
				t.Fatal(err)
			}
		}
		if allocs := testing.AllocsPerRun(100, call); allocs > 1 {
			t.Errorf("%+v: a steady-state one-shot call allocates %.2f objects, want the frame alone", k, allocs)
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
			want, p, err := c.appendCompress(nil, a, level, 0, src, true, false)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			wantPlan := snapshotPlan(p)
			if zstdFamily := a == ZStd || a == Flate || a == Brotli; (wantPlan.ZStd != nil) != zstdFamily ||
				(wantPlan.Snappy != nil) != (a == Snappy) {
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
			if gotPlan == (Plan{}) && !bytes.Equal(got, want) { // no plan: the frame must stay real
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
			// compression through the same Coder has to be decodable, and it is
			// the very frame the plan describes.
			full, err := c.AppendCompress(nil, a, level, 0, src)
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if !bytes.Equal(full, want) {
				t.Fatalf("round %d %v: AppendCompress differs from the planned full encode", round, a)
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
