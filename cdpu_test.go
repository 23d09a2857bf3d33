package cdpu

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"cdpu/internal/corpus"
	"cdpu/internal/resil"
)

func TestFacadeHardwareRoundTrip(t *testing.T) {
	data := corpus.Generate(corpus.Log, 100<<10, 1)
	for _, algo := range []Algorithm{Snappy, ZStd} {
		c, err := NewCompressor(Config{Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		d, err := NewDecompressor(Config{Algo: algo})
		if err != nil {
			t.Fatal(err)
		}
		cres, err := c.Compress(data)
		if err != nil {
			t.Fatal(err)
		}
		dres, err := d.Decompress(cres.Output)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dres.Output, data) {
			t.Fatalf("%v round trip failed", algo)
		}
		if cres.Cycles <= 0 || dres.Cycles <= 0 {
			t.Fatalf("%v: missing cycle accounting", algo)
		}
		if c.Area().Total() <= 0 {
			t.Fatalf("%v: missing area", algo)
		}
	}
}

func TestFacadeSoftwareCodecs(t *testing.T) {
	data := corpus.Generate(corpus.JSON, 50<<10, 2)
	for _, algo := range []Algorithm{Snappy, ZStd, Flate, Brotli, Gipfeli, LZO} {
		enc, err := Compress(algo, 0, 0, data)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		got, err := Decompress(algo, enc)
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v round trip failed", algo)
		}
	}
}

// TestFacadeCompressIsConcurrent: Compress leases its encoder from a pool
// shared by every caller, so goroutines compressing at once, each its own
// payloads under its own mix of algorithms, must each get their own bytes
// back. The race detector (make race runs this package) sees the sharing.
func TestFacadeCompressIsConcurrent(t *testing.T) {
	algos := []Algorithm{Snappy, ZStd, Flate, Brotli, Gipfeli, LZO}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				algo := algos[(g+i)%len(algos)]
				data := corpus.Generate(corpus.Kinds[(g+i)%len(corpus.Kinds)], 1<<10+977*i, int64(100*g+i))
				enc, err := Compress(algo, 0, 0, data)
				if err != nil {
					t.Errorf("goroutine %d call %d: %v: %v", g, i, algo, err)
					return
				}
				if got, err := Decompress(algo, enc); err != nil || !bytes.Equal(got, data) {
					t.Errorf("goroutine %d call %d: %v round trip failed: %v", g, i, algo, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestFacadeFleetSampling(t *testing.T) {
	m := NewFleetModel(3)
	calls := m.SampleCalls(5000)
	a := AnalyzeFleet(calls)
	if got := a.DecompressionCycleFraction(); got < 0.4 || got > 0.7 {
		t.Errorf("decompression fraction = %.2f", got)
	}
}

func TestFacadeBenchmarkGeneration(t *testing.T) {
	s, err := GenerateBenchmark(BenchmarkSpec{
		Algo: Snappy, Op: OpCompress, N: 10, MaxFileBytes: 256 << 10, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Files) != 10 {
		t.Fatalf("%d files", len(s.Files))
	}
}

func TestFacadePlacements(t *testing.T) {
	data := corpus.Generate(corpus.Text, 64<<10, 5)
	enc, err := Compress(Snappy, 0, 0, data)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64
	for _, p := range []Placement{PlacementRoCC, PlacementChiplet, PlacementPCIeNoCache} {
		d, err := NewDecompressor(Config{Algo: Snappy, Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		res, err := d.Decompress(enc)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= prev {
			t.Fatalf("placement %v not slower than previous (%.0f <= %.0f)", p, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestFacadeStreaming(t *testing.T) {
	data := corpus.Generate(corpus.Log, 300<<10, 6)

	var sbuf bytes.Buffer
	sw := NewSnappyFrameWriter(&sbuf)
	if _, err := sw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(NewSnappyFrameReader(&sbuf))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("snappy frame stream: %v", err)
	}

	var zbuf bytes.Buffer
	zw, err := NewZStdWriter(&zbuf, ZStdParams{Level: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err = io.ReadAll(NewZStdReader(&zbuf, nil))
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("zstd stream: %v", err)
	}
}

func TestFacadeDevice(t *testing.T) {
	dev, err := NewDevice(Config{Algo: Snappy, Op: OpDecompress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, _ := Compress(Snappy, 0, 0, corpus.Generate(corpus.JSON, 32<<10, 7))
	res, err := dev.Exec(enc)
	if err != nil {
		t.Fatal(err)
	}
	svc := []float64{res.Cycles, res.Cycles}
	results, stats, err := dev.ReplayPolicy([]Job{{Arrival: 0}, {Arrival: 0}}, svc, nil, nil, resil.Policy{})
	if err != nil || len(results) != 2 || stats.Jobs != 2 {
		t.Fatalf("device run: %v", err)
	}
	// Two pipelines, simultaneous arrivals: neither job should queue.
	if results[1].Queue != 0 {
		t.Errorf("second job queued %f cycles on a 2-pipeline device", results[1].Queue)
	}
}

func TestFacadeChain(t *testing.T) {
	res, err := RunChain(ChainConfig{
		Placement: PlacementChiplet,
		Stages:    []ChainStage{{Name: "s", BytesPerCycle: 8, OutScale: 0.5}},
	}, 64<<10)
	if err != nil || res.Cycles <= 0 {
		t.Fatalf("chain: %v", err)
	}
}
