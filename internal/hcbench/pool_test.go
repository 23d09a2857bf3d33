package hcbench

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
)

// forgetStandardPools returns the process to the state before its first
// Generate: no standard corpus, no pools.
func forgetStandardPools() {
	standardCorpus = sync.OnceValue(corpus.StandardSuite)
	pools.Range(func(algo, _ any) bool { pools.Delete(algo); return true })
}

// TestGenerateMatchesUnmemoizedOracle holds the memoized path to the one that
// memoizes nothing: both directions of an algorithm, requested at once from
// two goroutines, return the suites GenerateFromCorpus builds from a fresh
// standard corpus, and between them they build one pool.
func TestGenerateMatchesUnmemoizedOracle(t *testing.T) {
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		t.Run(algo.String(), func(t *testing.T) {
			if algo == comp.ZStd && testing.Short() {
				t.Skip("three ZStd pools over the standard corpus")
			}
			forgetStandardPools()
			hits, misses := metricPoolCacheHits.Value(), metricPoolCacheMisses.Value()

			var specs [2]Spec
			var got [2]*Suite
			var errs [2]error
			var wg sync.WaitGroup
			for i, op := range comp.Ops {
				specs[i] = Spec{Algo: algo, Op: op, N: 24, MaxFileBytes: 256 << 10, Seed: 5}
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i], errs[i] = Generate(specs[i])
				}()
			}
			wg.Wait()

			if h, m := metricPoolCacheHits.Value()-hits, metricPoolCacheMisses.Value()-misses; h != 1 || m != 1 {
				t.Errorf("two directions of %v: %d pool-cache misses and %d hits, want 1 and 1", algo, m, h)
			}
			files := corpus.StandardSuite()
			for i, spec := range specs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				want, err := GenerateFromCorpus(spec, files)
				if err != nil {
					t.Fatal(err)
				}
				if len(got[i].Files) != len(want.Files) {
					t.Fatalf("%v-%v: %d files, want %d", algo, spec.Op, len(got[i].Files), len(want.Files))
				}
				for j, w := range want.Files {
					if !reflect.DeepEqual(got[i].Files[j], w) {
						t.Fatalf("%s differs from the unmemoized generator's", w.Name)
					}
				}
			}
		})
	}
}

// oneShotPool is BuildPool as it was before the reused size-only coder: a
// full one-shot encode per chunk.
func oneShotPool(t *testing.T, files []corpus.File, algo comp.Algorithm) []chunk {
	t.Helper()
	var chunks []chunk
	for _, f := range files {
		for off := 0; off+DefaultChunkSize <= len(f.Data); off += DefaultChunkSize {
			c := f.Data[off : off+DefaultChunkSize]
			enc, err := comp.CompressCall(algo, algo.DefaultLevel(), 0, c)
			if err != nil {
				t.Fatal(err)
			}
			chunks = append(chunks, chunk{data: c, ratio: float64(len(c)) / float64(len(enc))})
		}
	}
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].ratio < chunks[j].ratio })
	return chunks
}

// TestSizeOnlyLengthsWhereTheGeneratorReadsThem pins the one property of the
// size-only coder the generator depends on, on the inputs it feeds it: every
// pool chunk and every checkpoint prefix of an assembled file encodes to the
// length a full one-shot encode has, through a coder reused the way BuildPool
// and assemble reuse theirs; and the pool comes out in the same order.
func TestSizeOnlyLengthsWhereTheGeneratorReadsThem(t *testing.T) {
	files := corpus.SmallSuite()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		t.Run(algo.String(), func(t *testing.T) {
			level := algo.DefaultLevel()
			coder := comp.NewCoder()
			var enc []byte
			sameLength := func(what string, src []byte) {
				t.Helper()
				full, err := comp.CompressCall(algo, level, 0, src)
				if err != nil {
					t.Fatal(err)
				}
				if enc, _, err = coder.AppendCompressPlanSizeOnly(enc[:0], algo, level, 0, src); err != nil {
					t.Fatal(err)
				}
				if len(enc) != len(full) {
					t.Fatalf("%s: size-only length %d, full encode %d", what, len(enc), len(full))
				}
			}

			want := oneShotPool(t, files, algo)
			for i, c := range want {
				sameLength(fmt.Sprintf("chunk %d", i), c.data)
			}
			pool, err := BuildPool(files, DefaultChunkSize, algo, level)
			if err != nil {
				t.Fatal(err)
			}
			if len(pool.chunks) != len(want) {
				t.Fatalf("pool of %d chunks, one-shot pool of %d", len(pool.chunks), len(want))
			}
			for i, c := range pool.chunks {
				if c.ratio != want[i].ratio || &c.data[0] != &want[i].data[0] {
					t.Fatalf("pool entry %d differs from the one-shot pool's", i)
				}
			}

			// assemble re-evaluates after 8, 16, 32, ... chunks.
			out, err := pool.newAssembler().assemble(newRng(4), 200<<10, 2.0)
			if err != nil {
				t.Fatal(err)
			}
			for n := 8 * DefaultChunkSize; n < len(out); n *= 2 {
				sameLength(fmt.Sprintf("checkpoint prefix of %d bytes", n), out[:n])
			}
		})
	}
}

// TestAssembleReturnsCheckpointError: a checkpoint compression that fails
// stops the file instead of leaving the estimator on a stale bias.
func TestAssembleReturnsCheckpointError(t *testing.T) {
	pool, err := BuildPool(corpus.SmallSuite(), DefaultChunkSize, comp.Snappy, 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.refAlgo = comp.Algorithm(99)
	if _, err := pool.newAssembler().assemble(newRng(1), 4*DefaultChunkSize, 2.0); err != nil {
		t.Errorf("a file that ends before the first checkpoint: %v", err)
	}
	if _, err := pool.newAssembler().assemble(newRng(1), 64<<10, 2.0); err == nil {
		t.Error("checkpoint compression under an unknown algorithm returned no error")
	}
}

// BenchmarkGenerate times suite generation over the small corpus, pool build
// included, per algorithm and direction, and Generate itself over the standard
// corpus in a process that has built nothing (cold) and one that has (warm).
func BenchmarkGenerate(b *testing.B) {
	small := corpus.SmallSuite()
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, op := range comp.Ops {
			spec := Spec{Algo: algo, Op: op, N: 20, MaxFileBytes: 256 << 10, Seed: 9}
			b.Run(fmt.Sprintf("small/%v-%v", algo, op), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					s, err := GenerateFromCorpus(spec, small)
					if err != nil {
						b.Fatal(err)
					}
					b.SetBytes(int64(s.TotalUncompressedBytes()))
				}
			})
		}
	}
	spec := Spec{Algo: comp.Snappy, Op: comp.Compress, N: 20, MaxFileBytes: 256 << 10, Seed: 9}
	for _, cold := range []bool{true, false} {
		name := "standard/warm"
		if cold {
			name = "standard/cold"
		}
		b.Run(name, func(b *testing.B) {
			if !cold {
				if _, err := Generate(spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					forgetStandardPools()
				}
				s, err := Generate(spec)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(int64(s.TotalUncompressedBytes()))
			}
		})
	}
}
