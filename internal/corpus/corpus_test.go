package corpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

func TestGenerateSizes(t *testing.T) {
	for _, k := range Kinds {
		for _, size := range []int{0, 1, 100, 64 << 10} {
			got := Generate(k, size, 42)
			if len(got) != size {
				t.Errorf("Generate(%v, %d): len = %d", k, size, len(got))
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, k := range Kinds {
		a := Generate(k, 32<<10, 7)
		b := Generate(k, 32<<10, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("Generate(%v) not deterministic", k)
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	for _, k := range Kinds {
		if k == Zeros {
			continue
		}
		a := Generate(k, 32<<10, 1)
		b := Generate(k, 32<<10, 2)
		if bytes.Equal(a, b) {
			t.Errorf("Generate(%v) identical across seeds", k)
		}
	}
}

// entropy8 approximates compressibility with a 0-order byte histogram check:
// count distinct bytes as a cheap proxy.
func distinctBytes(b []byte) int {
	var seen [256]bool
	n := 0
	for _, c := range b {
		if !seen[c] {
			seen[c] = true
			n++
		}
	}
	return n
}

func TestKindsSpanEntropyRange(t *testing.T) {
	z := Generate(Zeros, 16<<10, 1)
	r := Generate(Random, 16<<10, 1)
	tx := Generate(Text, 16<<10, 1)
	if distinctBytes(z) != 1 {
		t.Errorf("zeros has %d distinct bytes", distinctBytes(z))
	}
	if distinctBytes(r) < 250 {
		t.Errorf("random has only %d distinct bytes", distinctBytes(r))
	}
	dt := distinctBytes(tx)
	if dt < 20 || dt > 100 {
		t.Errorf("text distinct bytes = %d, want letter-ish alphabet", dt)
	}
}

func TestStandardSuite(t *testing.T) {
	files := StandardSuite()
	if len(files) < 10 {
		t.Fatalf("suite too small: %d", len(files))
	}
	var total int
	for _, f := range files {
		if len(f.Data) == 0 {
			t.Errorf("%s empty", f.Name)
		}
		total += len(f.Data)
	}
	if total < 16<<20 {
		t.Errorf("suite total %d bytes, want >= 16 MiB", total)
	}
}

func TestSmallSuiteCoversAllKinds(t *testing.T) {
	files := SmallSuite()
	if len(files) != len(Kinds) {
		t.Fatalf("small suite has %d files, want %d", len(files), len(Kinds))
	}
	seen := map[Kind]bool{}
	for _, f := range files {
		seen[f.Kind] = true
	}
	for _, k := range Kinds {
		if !seen[k] {
			t.Errorf("kind %v missing", k)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range Kinds {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", int(k))
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestGenReusedMatchesGenerate(t *testing.T) {
	var g Gen
	buf := make([]byte, 0, 8<<10)
	for _, kind := range Kinds {
		for _, seed := range []int64{1, 7, 99} {
			want := Generate(kind, 4096, seed)
			buf = g.AppendGenerate(buf[:0], kind, 4096, seed)
			if !bytes.Equal(buf, want) {
				t.Fatalf("%v seed %d: reused Gen output diverges from Generate", kind, seed)
			}
		}
	}
}

// payloadKinds are the six families the replay draws its payloads from.
var payloadKinds = []Kind{Text, Log, JSON, Protobuf, Table, HTML}

func TestGenSteadyStateAllocs(t *testing.T) {
	var g Gen
	buf := make([]byte, 0, 8<<10)
	for _, kind := range payloadKinds {
		allocs := testing.AllocsPerRun(50, func() {
			buf = g.AppendGenerate(buf[:0], kind, 4096, 5)
		})
		if allocs != 0 {
			t.Errorf("steady-state Gen.AppendGenerate(%v): %v allocs/call, want 0", kind, allocs)
		}
	}
	// Generate allocates the buffer it returns, slack included, and nothing
	// else: the generator state stays on the stack and the slack must not
	// force a second, larger buffer.
	for _, size := range []int{1, 4096, 64 << 10} {
		allocs := testing.AllocsPerRun(20, func() {
			sink = Generate(JSON, size, 5)
		})
		if allocs != 1 {
			t.Errorf("Generate(JSON, %d): %v allocs/call, want 1", size, allocs)
		}
	}
}

var sink []byte

// goldenSizes straddle the 16-byte slot width, one record, the replay's
// 2-4 KiB payloads and a whole suite chunk; goldenSeeds cover negative, zero
// and beyond-2^31 values of the seed the generator reduces mod 2^31-1.
var (
	goldenSizes = []int{1, 2, 3, 15, 16, 17, 100, 1000, 2048, 4096, 11500, 65536, 300000}
	goldenSeeds = []int64{-14, -7, 0, 1, 7, 1 << 40, math.MaxInt64, math.MinInt64}
)

// goldenSums is sha256 over Generate(kind, size, seed) for every size in
// goldenSizes (outer loop) and seed in goldenSeeds (inner loop), taken on the
// math/rand-backed generator. Every fingerprint, golden and EXPERIMENTS.md
// table downstream rests on these bytes; they never change.
var goldenSums = map[Kind]string{
	Text:     "619f40c247a5b8c5f397a70a435e76508db1a441e3ce3f639184da906730d1bb",
	Log:      "00773f667881d863f4542b6bab5d1f34e02923145071691f8a090ef0a54bf4cf",
	JSON:     "ca71f2b3ac929465d07dd51cbf228b664a0c0282144007371457788d46e80cad",
	Protobuf: "5de630b5139eab08a55cc277ad41c5c15884e07fbf17c19045ff71046e5cbc6d",
	Table:    "cd270b25e82762e06298e9830d9b7bb8ea9e43d17492107a9bc4e245f1c0c965",
	HTML:     "296357a5df49bd1beda3789147a34d302f0feb90c7d40e66d367dad234fba919",
	Skewed:   "a833ade4cea83b0cb01e02724612b3656fa20dcd817c3c0d0fa1d2a8cbc82717",
	Random:   "94d70b8c29d908294191daf2ce54b242f5cf56542b9bacec9408e6adac661c81",
	Zeros:    "feb475c1046cbd8e137ec8ed24dff95811a7334ebae2ff9ebfccaf8137a26cf4",
}

// TestGenerateGolden pins every generated byte, through all three entry
// shapes: Generate, one reused Gen, and an append to a full dst.
func TestGenerateGolden(t *testing.T) {
	var g Gen
	var reused []byte
	for _, kind := range Kinds {
		h := sha256.New()
		for _, size := range goldenSizes {
			for _, seed := range goldenSeeds {
				want := Generate(kind, size, seed)
				if len(want) != size {
					t.Fatalf("%v size %d seed %d: Generate returned %d bytes", kind, size, seed, len(want))
				}
				h.Write(want)

				reused = g.AppendGenerate(reused[:0], kind, size, seed)
				if !bytes.Equal(reused, want) {
					t.Fatalf("%v size %d seed %d: reused Gen diverges from Generate", kind, size, seed)
				}

				// dst is full (cap == len) and sits in front of a guard
				// region: the prefix must survive, the payload must follow
				// it, and nothing may be written past dst's capacity.
				back := bytes.Repeat([]byte{0xA5}, 5+64)
				copy(back, "prefx")
				got := g.AppendGenerate(back[:5:5], kind, size, seed)
				if string(got[:5]) != "prefx" || !bytes.Equal(got[5:], want) {
					t.Fatalf("%v size %d seed %d: append to a full dst diverges from Generate", kind, size, seed)
				}
				if !bytes.Equal(back[5:], bytes.Repeat([]byte{0xA5}, 64)) {
					t.Fatalf("%v size %d seed %d: wrote past cap(dst)", kind, size, seed)
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenSums[kind] {
			t.Errorf("%v: sha256 = %s, want %s", kind, got, goldenSums[kind])
		}
	}
}

// BenchmarkGenerate is the layer's matrix: the six payload kinds the replay
// draws, at the overload workload's call size (where reseeding dominates)
// and at a suite chunk's (where the record loops do).
func BenchmarkGenerate(b *testing.B) {
	for _, kind := range payloadKinds {
		for _, size := range []int{2 << 10, 64 << 10} {
			b.Run(fmt.Sprintf("%v/%dK", kind, size>>10), func(b *testing.B) {
				var g Gen
				buf := g.AppendGenerate(nil, kind, size, 1)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					buf = g.AppendGenerate(buf[:0], kind, size, int64(i))
				}
			})
		}
	}
}

// BenchmarkSeed times the reseed every AppendGenerate call starts with; at
// the overload workload's 2 KiB calls it is the largest single cost.
func BenchmarkSeed(b *testing.B) {
	var r rng
	for i := 0; i < b.N; i++ {
		r.seed(int64(i))
	}
}
