package cdpu

// Benchmark harness: one benchmark per paper table/figure (each regenerates
// the figure's rows through the experiment registry), plus codec and
// CDPU-instance microbenchmarks with byte-throughput reporting.
//
// Figure benchmarks run at the reduced QuickConfig scale so that
// `go test -bench=. -benchmem` finishes in minutes; cmd/cdpubench runs the
// same experiments at full scale.
//
// DSE figure benchmarks go through the internal/exp scheduler, whose
// config-run memo persists across b.N iterations: the first iteration
// simulates, later iterations are cache hits. Their ns/op therefore measures
// amortized (memoized) sweep cost; BenchmarkDSESummary additionally reuses
// fig11/fig14 grid corners when those ran earlier in the same process.

import (
	"bytes"
	"io"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/corpus"
	"cdpu/internal/exp"
	"cdpu/internal/fleet"
)

func benchExperiment(b *testing.B, id string) {
	e, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := exp.QuickConfig()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 3 profiling figures ---------------------------------------------

func BenchmarkFig01FleetTimeline(b *testing.B)    { benchExperiment(b, "fig1") }
func BenchmarkFig02aByteShares(b *testing.B)      { benchExperiment(b, "fig2a") }
func BenchmarkFig02bZStdLevels(b *testing.B)      { benchExperiment(b, "fig2b") }
func BenchmarkFig02cAchievedRatios(b *testing.B)  { benchExperiment(b, "fig2c") }
func BenchmarkFig03CallSizeCDFs(b *testing.B)     { benchExperiment(b, "fig3") }
func BenchmarkFig04LibraryShares(b *testing.B)    { benchExperiment(b, "fig4") }
func BenchmarkFig05WindowCDFs(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig06OpenBenchmarks(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFleetSummaryHeadlines(b *testing.B) { benchExperiment(b, "fleet-summary") }

// --- Section 4 benchmark generation --------------------------------------------

func BenchmarkFig07HCBValidation(b *testing.B) { benchExperiment(b, "fig7") }

// --- Section 6 design-space exploration ----------------------------------------

func BenchmarkFig11SnappyDecompDSE(b *testing.B) { benchExperiment(b, "fig11") }
func BenchmarkFig12SnappyCompDSE(b *testing.B)   { benchExperiment(b, "fig12") }
func BenchmarkFig13SnappyCompHT9(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14ZStdDecompDSE(b *testing.B)   { benchExperiment(b, "fig14") }
func BenchmarkFig15ZStdCompDSE(b *testing.B)     { benchExperiment(b, "fig15") }
func BenchmarkDSESummary(b *testing.B)           { benchExperiment(b, "dse-summary") }
func BenchmarkAblationHash(b *testing.B)         { benchExperiment(b, "ablation-hash") }
func BenchmarkAblationFSE(b *testing.B)          { benchExperiment(b, "ablation-fse") }
func BenchmarkAblationStats(b *testing.B)        { benchExperiment(b, "ablation-stats") }

// --- Codec microbenchmarks ------------------------------------------------------

func benchCompress(b *testing.B, algo Algorithm, level int, kind corpus.Kind) {
	data := corpus.Generate(kind, 1<<20, 99)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(algo, level, 0, data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecompress(b *testing.B, algo Algorithm, kind corpus.Kind) {
	data := corpus.Generate(kind, 1<<20, 99)
	enc, err := Compress(algo, 0, 0, data)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompress(algo, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnappyCompressText(b *testing.B)   { benchCompress(b, Snappy, 0, corpus.Text) }
func BenchmarkSnappyCompressLog(b *testing.B)    { benchCompress(b, Snappy, 0, corpus.Log) }
func BenchmarkSnappyDecompressText(b *testing.B) { benchDecompress(b, Snappy, corpus.Text) }
func BenchmarkZStdCompressLevel3(b *testing.B)   { benchCompress(b, ZStd, 3, corpus.Text) }
func BenchmarkZStdCompressLevel19(b *testing.B)  { benchCompress(b, ZStd, 19, corpus.Text) }
func BenchmarkZStdDecompressText(b *testing.B)   { benchDecompress(b, ZStd, corpus.Text) }
func BenchmarkGipfeliCompress(b *testing.B)      { benchCompress(b, Gipfeli, 0, corpus.Text) }
func BenchmarkLZOCompress(b *testing.B)          { benchCompress(b, LZO, 1, corpus.Log) }

// --- CDPU instance microbenchmarks -----------------------------------------------

func BenchmarkCDPUSnappyCompress(b *testing.B) {
	data := corpus.Generate(corpus.Log, 1<<20, 100)
	c, err := core.NewCompressor(core.Config{Algo: comp.Snappy})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Compress(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCDPUZStdDecompress(b *testing.B) {
	data := corpus.Generate(corpus.Log, 1<<20, 101)
	enc, err := Compress(ZStd, 0, 0, data)
	if err != nil {
		b.Fatal(err)
	}
	d, err := core.NewDecompressor(core.Config{Algo: comp.ZStd})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decompress(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Generator microbenchmarks ----------------------------------------------------

func BenchmarkFleetSampling(b *testing.B) {
	m := fleet.NewModel(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.SampleCall()
	}
}

// --- Extended experiments -----------------------------------------------------

func BenchmarkChainingExperiment(b *testing.B)   { benchExperiment(b, "chaining") }
func BenchmarkPipelinesExperiment(b *testing.B)  { benchExperiment(b, "pipelines") }
func BenchmarkDeploymentExperiment(b *testing.B) { benchExperiment(b, "deployment") }

// --- Streaming microbenchmarks --------------------------------------------------

func BenchmarkSnappyFramedStream(b *testing.B) {
	data := corpus.Generate(corpus.Log, 1<<20, 102)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewSnappyFrameWriter(&buf)
		_, _ = w.Write(data)
		_ = w.Close()
		if _, err := io.ReadAll(NewSnappyFrameReader(&buf)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkZStdStream(b *testing.B) {
	data := corpus.Generate(corpus.Log, 1<<20, 103)
	b.SetBytes(int64(len(data)))
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w, err := NewZStdWriter(&buf, ZStdParams{})
		if err != nil {
			b.Fatal(err)
		}
		_, _ = w.Write(data)
		_ = w.Close()
		if _, err := io.ReadAll(NewZStdReader(&buf, nil)); err != nil {
			b.Fatal(err)
		}
	}
}
