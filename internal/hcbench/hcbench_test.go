package hcbench

import (
	"math"
	"math/rand"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fleet"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// testCorpus is a reduced corpus for fast pool builds: several seeds of each
// kind so the pool comfortably exceeds the files assembled from it.
func testCorpus() []corpus.File {
	var files []corpus.File
	for seed := int64(0); seed < 4; seed++ {
		for i, k := range corpus.Kinds {
			files = append(files, corpus.File{
				Name: k.String(),
				Kind: k,
				Data: corpus.Generate(k, 96<<10, seed*100+int64(i)),
			})
		}
	}
	return files
}

func testSpec(algo comp.Algorithm, op comp.Op) Spec {
	return Spec{Algo: algo, Op: op, N: 60, MaxFileBytes: 1 << 20, Seed: 1}
}

func mustSuite(t *testing.T, spec Spec) *Suite {
	t.Helper()
	s, err := GenerateFromCorpus(spec, testCorpus())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPoolBuild(t *testing.T) {
	p, err := BuildPool(testCorpus(), DefaultChunkSize, comp.Snappy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.chunks) < 100 {
		t.Fatalf("pool has only %d chunks", len(p.chunks))
	}
	lo, hi := p.RatioRange()
	if lo < 0.5 || hi < lo {
		t.Fatalf("ratio range [%f,%f]", lo, hi)
	}
	// The corpus spans incompressible to trivially compressible data.
	if lo > 1.2 {
		t.Errorf("pool floor ratio %.2f: missing incompressible chunks", lo)
	}
	if hi < 5 {
		t.Errorf("pool ceiling ratio %.2f: missing highly compressible chunks", hi)
	}
	// Sorted by ratio.
	for i := 1; i < len(p.chunks); i++ {
		if p.chunks[i].ratio < p.chunks[i-1].ratio {
			t.Fatal("pool not sorted")
		}
	}
}

func TestPoolBuildErrors(t *testing.T) {
	if _, err := BuildPool(testCorpus(), 16, comp.Snappy, 0); err == nil {
		t.Error("tiny chunk size accepted")
	}
	if _, err := BuildPool(nil, DefaultChunkSize, comp.Snappy, 0); err == nil {
		t.Error("empty corpus accepted")
	}
}

func TestAssembleHitsSizeTarget(t *testing.T) {
	p, err := BuildPool(testCorpus(), DefaultChunkSize, comp.Snappy, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng, asm := newRng(2), p.newAssembler()
	for _, target := range []int{1 << 10, 100 << 10, 1 << 20} {
		out, err := asm.assemble(rng, target, 2.0)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != target {
			t.Errorf("assembled %d bytes, want %d", len(out), target)
		}
	}
}

func TestAssembleApproachesRatioTarget(t *testing.T) {
	p, err := BuildPool(testCorpus(), DefaultChunkSize, comp.Snappy, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng, asm := newRng(3), p.newAssembler()
	for _, target := range []float64{1.2, 2.0, 4.0} {
		out, err := asm.assemble(rng, 256<<10, target)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := comp.CompressCall(comp.Snappy, 0, 0, out)
		if err != nil {
			t.Fatal(err)
		}
		got := float64(len(out)) / float64(len(enc))
		if math.Abs(got-target)/target > 0.30 {
			t.Errorf("target ratio %.2f: achieved %.2f", target, got)
		}
	}
}

func TestGenerateSuiteBasics(t *testing.T) {
	s := mustSuite(t, testSpec(comp.Snappy, comp.Compress))
	if len(s.Files) != 60 {
		t.Fatalf("%d files", len(s.Files))
	}
	for _, f := range s.Files {
		if len(f.Data) == 0 {
			t.Fatalf("%s empty", f.Name)
		}
		if len(f.Data) > 1<<20 {
			t.Fatalf("%s exceeds MaxFileBytes", f.Name)
		}
		if f.Algo != comp.Snappy || f.Op != comp.Compress {
			t.Fatalf("%s mislabeled", f.Name)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := mustSuite(t, testSpec(comp.ZStd, comp.Compress))
	b := mustSuite(t, testSpec(comp.ZStd, comp.Compress))
	if len(a.Files) != len(b.Files) {
		t.Fatal("file counts differ")
	}
	for i := range a.Files {
		if a.Files[i].Level != b.Files[i].Level || len(a.Files[i].Data) != len(b.Files[i].Data) {
			t.Fatalf("file %d differs across identical seeds", i)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateFromCorpus(Spec{Algo: comp.Snappy, Op: comp.Compress}, testCorpus()); err == nil {
		t.Error("N=0 accepted")
	}
}

func TestZStdSuiteCarriesLevelsAndWindows(t *testing.T) {
	s := mustSuite(t, testSpec(comp.ZStd, comp.Compress))
	levels := map[int]int{}
	for _, f := range s.Files {
		levels[f.Level]++
		if f.WindowLog < 10 || f.WindowLog > 27 {
			t.Fatalf("%s window log %d", f.Name, f.WindowLog)
		}
	}
	if levels[3] < len(s.Files)/3 {
		t.Errorf("level 3 appears only %d/%d times; fleet default should dominate", levels[3], len(s.Files))
	}
	if len(levels) < 2 {
		t.Error("no level diversity sampled")
	}
}

func TestSuiteCallSizeMatchesFleet(t *testing.T) {
	// Figure 7: the generated suites line up with the fleet distributions.
	// With a scaled-down N and a MaxFileBytes cap, compare bins below the
	// cap (the paper itself notes the largest bins are undersampled).
	for _, ao := range []fleet.AlgoOp{
		{Algo: comp.Snappy, Op: comp.Compress},
		{Algo: comp.Snappy, Op: comp.Decompress},
	} {
		spec := testSpec(ao.Algo, ao.Op)
		spec.N = 250
		s := mustSuite(t, spec)
		if gap := s.FleetCDFGap(19); gap > 0.15 {
			t.Errorf("%v-%v call-size CDF gap %.3f vs fleet", ao.Algo, ao.Op, gap)
		}
	}
}

func TestSuiteAggregateRatioNearFleet(t *testing.T) {
	// §4.1: achieved suite ratios within ~5-10% of fleet ratios. Our
	// synthetic corpus is not Silesia, so allow a wider band while requiring
	// the right ordering between algorithms.
	// The suite-aggregate ratio (total uncompressed over total compressed,
	// every file under its recorded parameters) is §4.1's validation metric.
	measured := func(s *Suite) float64 {
		var u, c float64
		for _, f := range s.Files {
			enc, err := comp.CompressCall(f.Algo, f.Level, f.WindowLog, f.Data)
			if err != nil {
				t.Fatal(err)
			}
			u += float64(len(f.Data))
			c += float64(len(enc))
		}
		return u / c
	}
	sr := measured(mustSuite(t, testSpec(comp.Snappy, comp.Compress)))
	zr := measured(mustSuite(t, testSpec(comp.ZStd, comp.Compress)))
	if sr < 1.2 {
		t.Errorf("snappy suite ratio %.2f too low", sr)
	}
	if zr <= sr {
		t.Errorf("zstd suite ratio %.2f not above snappy's %.2f", zr, sr)
	}
	fleetSnappy := fleet.AchievedRatios["Snappy"]
	if math.Abs(sr-fleetSnappy)/fleetSnappy > 0.5 {
		t.Errorf("snappy suite ratio %.2f far from fleet %.2f", sr, fleetSnappy)
	}
}

func TestCallSizeCDFMonotone(t *testing.T) {
	s := mustSuite(t, testSpec(comp.ZStd, comp.Decompress))
	prev := 0.0
	for _, p := range s.CallSizeCDF() {
		if p.Cum < prev {
			t.Fatal("CDF not monotone")
		}
		prev = p.Cum
	}
	if math.Abs(prev-1) > 1e-9 {
		t.Fatalf("CDF ends at %f", prev)
	}
}

func TestTotalUncompressedBytes(t *testing.T) {
	s := mustSuite(t, testSpec(comp.Snappy, comp.Compress))
	total := 0
	for _, f := range s.Files {
		total += len(f.Data)
	}
	if s.TotalUncompressedBytes() != total {
		t.Error("byte accounting mismatch")
	}
}
