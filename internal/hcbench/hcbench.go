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
package hcbench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fleet"
	"cdpu/internal/stats"
)

// DefaultChunkSize is the pool chunk granularity.
const DefaultChunkSize = 2 << 10

// chunk is one ratio-indexed pool entry.
type chunk struct {
	data  []byte
	ratio float64
}

// Pool is a chunk pool indexed by compression ratio.
type Pool struct {
	chunks   []chunk // sorted by ratio ascending
	refAlgo  comp.Algorithm
	refLevel int
}

// BuildPool chunks the corpus files and indexes each chunk by the ratio the
// reference algorithm achieves on it.
func BuildPool(files []corpus.File, chunkSize int, refAlgo comp.Algorithm, refLevel int) (*Pool, error) {
	if chunkSize < 256 {
		return nil, fmt.Errorf("hcbench: chunk size %d too small", chunkSize)
	}
	p := &Pool{refAlgo: refAlgo, refLevel: refLevel}
	for _, f := range files {
		for off := 0; off+chunkSize <= len(f.Data); off += chunkSize {
			c := f.Data[off : off+chunkSize]
			enc, err := comp.CompressCall(refAlgo, refLevel, 0, c)
			if err != nil {
				return nil, fmt.Errorf("hcbench: indexing %s: %w", f.Name, err)
			}
			p.chunks = append(p.chunks, chunk{data: c, ratio: float64(len(c)) / float64(len(enc))})
		}
	}
	if len(p.chunks) == 0 {
		return nil, fmt.Errorf("hcbench: empty pool")
	}
	sort.Slice(p.chunks, func(i, j int) bool { return p.chunks[i].ratio < p.chunks[j].ratio })
	return p, nil
}

// RatioRange returns the pool's achievable ratio span.
func (p *Pool) RatioRange() (lo, hi float64) {
	return p.chunks[0].ratio, p.chunks[len(p.chunks)-1].ratio
}

// pick returns the index of a chunk whose ratio is near want, jittered
// within a small neighborhood so repeated picks vary (the paper's "random
// shuffles"), preferring chunks not yet used in the current file.
func (p *Pool) pick(rng *rand.Rand, want float64, used map[int]bool) int {
	i := sort.Search(len(p.chunks), func(i int) bool { return p.chunks[i].ratio >= want })
	span := len(p.chunks)/16 + 1
	i += rng.Intn(2*span+1) - span
	if i < 0 {
		i = 0
	}
	if i >= len(p.chunks) {
		i = len(p.chunks) - 1
	}
	// Walk outward for an unused chunk: re-using a chunk inside one file
	// creates artificial long-range matches that blow past the target ratio.
	for d := 0; d < len(p.chunks); d++ {
		for _, j := range []int{i + d, i - d} {
			if j >= 0 && j < len(p.chunks) && !used[j] {
				used[j] = true
				return j
			}
		}
	}
	return i // pool exhausted for this file; allow reuse
}

// Assemble builds one benchmark payload of ~targetBytes whose aggregate
// ratio under the reference algorithm approaches targetRatio. Following the
// paper's generator, the file is re-evaluated as it grows (actually
// compressed at checkpoints) and the ratio requested from the pool adjusts:
// concatenation creates cross-chunk redundancy that per-chunk ratios cannot
// predict, so the estimator carries a measured bias term.
func (p *Pool) Assemble(rng *rand.Rand, targetBytes int, targetRatio float64) []byte {
	out := make([]byte, 0, targetBytes+DefaultChunkSize)
	var compSum float64 // compressed-size estimate of assembled chunks
	bias := 1.0         // measured-vs-estimated compressed-size correction
	nextEval := 8       // chunks between actual compressions, doubling
	used := make(map[int]bool)
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
		j := p.pick(rng, want, used)
		c := p.chunks[j]
		out = append(out, c.data...)
		compSum += float64(len(c.data)) / c.ratio
		picks++
		if picks == nextEval && len(out) < targetBytes {
			if enc, err := comp.CompressCall(p.refAlgo, p.refLevel, 0, out); err == nil {
				bias = float64(len(enc)) / compSum
			}
			nextEval *= 2
		}
	}
	return out[:targetBytes]
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

// Generate produces a suite from spec, building its chunk pool from the
// standard synthetic corpus.
func Generate(spec Spec) (*Suite, error) {
	return GenerateFromCorpus(spec, corpus.StandardSuite())
}

// GenerateFromCorpus produces a suite using the given corpus files.
func GenerateFromCorpus(spec Spec, files []corpus.File) (*Suite, error) {
	if spec.N <= 0 {
		return nil, fmt.Errorf("hcbench: N must be positive")
	}
	pool, err := BuildPool(files, DefaultChunkSize, spec.Algo, spec.Algo.DefaultLevel())
	if err != nil {
		return nil, err
	}
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
		f.Data = pool.Assemble(rng, size, target)
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
