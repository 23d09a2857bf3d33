// Package hcbench implements HyperCompressBench: the paper's open-source,
// fleet-representative (de)compression benchmark generator (Section 4).
//
// The generator mirrors the paper's construction: corpus files are broken
// into fixed-size chunks; every chunk is compressed once to index it by
// achieved compression ratio; per-benchmark targets (call size, compression
// ratio, level, window size) are sampled from the fleet profile
// distributions (internal/fleet); and each benchmark file is assembled by
// greedily selecting chunks whose ratio steers the file toward its target,
// with random shuffles to avoid pathological chunk orderings. The paper
// generates 8,000–10,000 files per algorithm/op pair; Spec.N scales that
// down for tractable runs while preserving the sampled distributions.
//
// A pool is a function of (corpus, chunk size, reference algorithm, reference
// level) and nothing else, so Generate builds the standard corpus once per
// process and one pool per reference algorithm, and both directions of an
// algorithm assemble from the same pool. The price is retained memory: the
// 34 MB standard corpus and the pools built over it (chunk headers only; the
// chunks alias the corpus) stay alive for the life of the process.
// GenerateFromCorpus and BuildPool memoize nothing.
//
// The corpus and each pool are built on GOMAXPROCS goroutines (par.For; a
// caller that wants a pool blocks on its build), and both are byte-identical
// at any parallelism: results are written by position, and the pool is sorted
// from the serial collection order.
package hcbench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fleet"
	"cdpu/internal/obs"
	"cdpu/internal/par"
	"cdpu/internal/stats"
)

// DefaultChunkSize is the pool chunk granularity.
const DefaultChunkSize = 2 << 10

// chunk is one ratio-indexed pool entry.
type chunk struct {
	data  []byte
	ratio float64
}

// Pool is a chunk pool indexed by compression ratio. It is read-only once
// built: Generate shares one between concurrent callers.
type Pool struct {
	chunks   []chunk // sorted by ratio ascending
	refAlgo  comp.Algorithm
	refLevel int
}

// BuildPool chunks the corpus files and indexes each chunk by the ratio the
// reference algorithm achieves on it. The chunks are collected file by file,
// indexed on GOMAXPROCS goroutines (index), and sorted from that collection
// order, so the pool is the same at any parallelism. An indexing error is the
// one the first failing chunk in collection order returns.
func BuildPool(files []corpus.File, chunkSize int, refAlgo comp.Algorithm, refLevel int) (*Pool, error) {
	if chunkSize < 256 {
		return nil, fmt.Errorf("hcbench: chunk size %d too small", chunkSize)
	}
	p := &Pool{refAlgo: refAlgo, refLevel: refLevel}
	for _, f := range files {
		for off := 0; off+chunkSize <= len(f.Data); off += chunkSize {
			p.chunks = append(p.chunks, chunk{data: f.Data[off : off+chunkSize]})
		}
	}
	if len(p.chunks) == 0 {
		return nil, fmt.Errorf("hcbench: empty pool")
	}
	if at, err := p.index(); err != nil {
		f := 0 // the file of chunk at: each file holds len/chunkSize of them
		for ; at >= len(files[f].Data)/chunkSize; f++ {
			at -= len(files[f].Data) / chunkSize
		}
		return nil, fmt.Errorf("hcbench: indexing %s: %w", files[f].Name, err)
	}
	sort.Slice(p.chunks, func(i, j int) bool { return p.chunks[i].ratio < p.chunks[j].ratio })
	return p, nil
}

// index writes every chunk's ratio on GOMAXPROCS goroutines (par.For) and
// returns what For does: the first failing chunk in collection order and its
// error. Only the encoded length is read, so each goroutine sends its chunks
// through one reused size-only coder and output buffer.
func (p *Pool) index() (int, error) {
	workers := runtime.GOMAXPROCS(0)
	scratch := make([]struct {
		coder comp.Coder
		enc   []byte
	}, max(1, min(workers, len(p.chunks))))
	return par.For(len(p.chunks), workers, func(w, i int) error {
		s, c := &scratch[w], &p.chunks[i]
		var err error
		if s.enc, _, err = s.coder.AppendCompressPlanSizeOnly(s.enc[:0], p.refAlgo, p.refLevel, 0, c.data); err != nil {
			return err
		}
		c.ratio = float64(len(c.data)) / float64(len(s.enc))
		return nil
	})
}

// RatioRange returns the pool's achievable ratio span.
func (p *Pool) RatioRange() (lo, hi float64) {
	return p.chunks[0].ratio, p.chunks[len(p.chunks)-1].ratio
}

// assembler is one caller's scratch for assembling files from a shared pool:
// the coder that re-evaluates a growing file, its output buffer, and the
// marks of the chunks the current file has used.
type assembler struct {
	pool  *Pool
	coder *comp.Coder
	enc   []byte
	used  []bool
}

func (p *Pool) newAssembler() *assembler {
	return &assembler{pool: p, coder: comp.NewCoder(), used: make([]bool, len(p.chunks))}
}

// pick returns the index of a chunk whose ratio is near want, jittered
// within a small neighborhood so repeated picks vary (the paper's "random
// shuffles"), preferring chunks not yet used in the current file.
func (a *assembler) pick(rng *rand.Rand, want float64) int {
	chunks, used := a.pool.chunks, a.used
	i := sort.Search(len(chunks), func(i int) bool { return chunks[i].ratio >= want })
	span := len(chunks)/16 + 1
	i += rng.Intn(2*span+1) - span
	if i < 0 {
		i = 0
	}
	if i >= len(chunks) {
		i = len(chunks) - 1
	}
	// Walk outward for an unused chunk: re-using a chunk inside one file
	// creates artificial long-range matches that blow past the target ratio.
	for d := 0; d < len(chunks); d++ {
		if j := i + d; j < len(chunks) && !used[j] {
			used[j] = true
			return j
		}
		if j := i - d; j >= 0 && !used[j] {
			used[j] = true
			return j
		}
	}
	return i // pool exhausted for this file; allow reuse
}

// assemble builds one benchmark payload of ~targetBytes whose aggregate
// ratio under the reference algorithm approaches targetRatio. Following the
// paper's generator, the file is re-evaluated as it grows (actually
// compressed at checkpoints) and the ratio requested from the pool adjusts:
// concatenation creates cross-chunk redundancy that per-chunk ratios cannot
// predict, so the estimator carries a measured bias term.
func (a *assembler) assemble(rng *rand.Rand, targetBytes int, targetRatio float64) ([]byte, error) {
	p := a.pool
	out := make([]byte, 0, targetBytes+DefaultChunkSize)
	var compSum float64 // compressed-size estimate of assembled chunks
	bias := 1.0         // measured-vs-estimated compressed-size correction
	nextEval := 8       // chunks between actual compressions, doubling
	clear(a.used)
	picks := 0
	for len(out) < targetBytes {
		want := targetRatio
		if len(out) > 0 {
			cur := float64(len(out)) / (compSum * bias)
			switch {
			case cur < targetRatio:
				want = targetRatio * 1.5
			case cur > targetRatio:
				want = targetRatio / 1.5
			}
		}
		c := p.chunks[a.pick(rng, want)]
		out = append(out, c.data...)
		compSum += float64(len(c.data)) / c.ratio
		picks++
		if picks == nextEval && len(out) < targetBytes {
			var err error
			a.enc, _, err = a.coder.AppendCompressPlanSizeOnly(a.enc[:0], p.refAlgo, p.refLevel, 0, out)
			if err != nil {
				return nil, fmt.Errorf("hcbench: re-evaluating a %d-byte file: %w", len(out), err)
			}
			bias = float64(len(a.enc)) / compSum
			nextEval *= 2
		}
	}
	return out[:targetBytes], nil
}

// File is one generated benchmark: an uncompressed payload plus the
// parameters that should be applied when it is used, as the paper's
// generator records alongside each file.
type File struct {
	Name        string
	Algo        comp.Algorithm
	Op          comp.Op
	Level       int
	WindowLog   int
	TargetRatio float64
	Data        []byte // uncompressed payload
}

// Suite is a set of generated benchmark files for one algorithm/op pair.
type Suite struct {
	Algo  comp.Algorithm
	Op    comp.Op
	Files []File
}

// Spec parameterizes suite generation.
type Spec struct {
	Algo comp.Algorithm
	Op   comp.Op
	// N is the number of files (the paper uses 8,000-10,000; smaller values
	// preserve the distributions at lower cost).
	N int
	// MaxFileBytes caps individual file sizes (0 = the fleet maximum,
	// 64 MiB). Capping trims only the rare huge-call tail.
	MaxFileBytes int
	// Seed makes generation deterministic.
	Seed int64
}

// The standard corpus and the pools over it, built once per process. A cold
// pass over both directions of two algorithms reads 2 misses and 2 hits.
var (
	standardCorpus = sync.OnceValue(corpus.StandardSuite)
	pools          sync.Map // comp.Algorithm → *poolCell

	metricPoolCacheHits   = obs.Default().Counter("hcbench.pool_cache.hits")
	metricPoolCacheMisses = obs.Default().Counter("hcbench.pool_cache.misses")
)

// poolCell holds one lazily built pool; the once gate means concurrent
// requesters of one algorithm's pool block on a single build.
type poolCell struct {
	once sync.Once
	pool *Pool
	err  error
}

// standardPool returns the pool of the standard corpus under algo at its
// default level.
func standardPool(algo comp.Algorithm) (*Pool, error) {
	v, hit := pools.LoadOrStore(algo, new(poolCell))
	if hit {
		metricPoolCacheHits.Inc()
	} else {
		metricPoolCacheMisses.Inc()
	}
	c := v.(*poolCell)
	c.once.Do(func() {
		c.pool, c.err = BuildPool(standardCorpus(), DefaultChunkSize, algo, algo.DefaultLevel())
	})
	return c.pool, c.err
}

// Generate produces a suite from spec over the standard synthetic corpus,
// whose pool for spec.Algo it builds at most once per process.
func Generate(spec Spec) (*Suite, error) {
	pool, err := standardPool(spec.Algo)
	if err != nil {
		return nil, err
	}
	return pool.generate(spec)
}

// GenerateFromCorpus produces a suite using the given corpus files, building
// their pool anew on every call.
func GenerateFromCorpus(spec Spec, files []corpus.File) (*Suite, error) {
	pool, err := BuildPool(files, DefaultChunkSize, spec.Algo, spec.Algo.DefaultLevel())
	if err != nil {
		return nil, err
	}
	return pool.generate(spec)
}

// generate assembles spec's files from the pool, which it only reads.
func (pool *Pool) generate(spec Spec) (*Suite, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("hcbench: N must be positive")
	}
	asm := pool.newAssembler()
	rng := rand.New(rand.NewSource(spec.Seed ^ int64(spec.Algo)<<8 ^ int64(spec.Op)<<16))
	sizes := fleet.CallSizes(fleet.AlgoOp{Algo: spec.Algo, Op: spec.Op}).CountWeighted()
	levels := fleet.ZStdLevels()
	windows := fleet.ZStdWindows(spec.Op)
	loRatio, hiRatio := pool.RatioRange()

	suite := &Suite{Algo: spec.Algo, Op: spec.Op}
	for i := 0; i < spec.N; i++ {
		f := File{
			Name: fmt.Sprintf("%v-%v-%05d", spec.Algo, spec.Op, i),
			Algo: spec.Algo,
			Op:   spec.Op,
		}
		size := sizes.Sample(rng)
		if spec.MaxFileBytes > 0 && size > spec.MaxFileBytes {
			size = spec.MaxFileBytes
		}
		if spec.Algo == comp.ZStd {
			f.Level = levels.Sample(rng)
			f.WindowLog = stats.BinOf(windows.Sample(rng))
		} else {
			f.Level = spec.Algo.DefaultLevel()
			f.WindowLog = 16
		}
		// Per-file target ratio: log-normal spread around the fleet
		// aggregate for the algorithm/level, clamped to the pool's range.
		agg := fleet.RatioFor(spec.Algo, f.Level)
		target := agg * math.Exp(rng.NormFloat64()*0.35)
		target = math.Max(loRatio, math.Min(hiRatio, target))
		f.TargetRatio = target
		var err error
		if f.Data, err = asm.assemble(rng, size, target); err != nil {
			return nil, err
		}
		suite.Files = append(suite.Files, f)
	}
	return suite, nil
}

// TotalUncompressedBytes sums the suite's payload sizes.
func (s *Suite) TotalUncompressedBytes() int {
	t := 0
	for _, f := range s.Files {
		t += len(f.Data)
	}
	return t
}

// CallSizeCDF returns the suite's byte-weighted call-size CDF, the paper's
// Figure 7 validation view.
func (s *Suite) CallSizeCDF() []stats.Point {
	var h stats.Hist
	for _, f := range s.Files {
		if len(f.Data) > 0 {
			h.Add(len(f.Data), float64(len(f.Data)))
		}
	}
	return h.CDF()
}

// FleetCDFGap returns the maximum gap between the suite's call-size CDF and
// the fleet target distribution, restricted to bins at or below maxBin
// (the paper notes the largest bins are expected to be undersampled; pass a
// large maxBin to compare everything).
func (s *Suite) FleetCDFGap(maxBin int) float64 {
	target := fleet.CallSizes(fleet.AlgoOp{Algo: s.Algo, Op: s.Op}).CDF()
	var trimmed []stats.Point
	for _, p := range target {
		if p.Bin <= maxBin {
			trimmed = append(trimmed, p)
		}
	}
	got := s.CallSizeCDF()
	var gotTrimmed []stats.Point
	for _, p := range got {
		if p.Bin <= maxBin {
			gotTrimmed = append(gotTrimmed, p)
		}
	}
	return stats.MaxCDFGap(trimmed, gotTrimmed)
}
