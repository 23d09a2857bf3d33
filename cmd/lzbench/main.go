// Command lzbench is an in-memory (de)compression benchmark in the style of
// the lzbench tool the paper uses for its Xeon baselines (§6.1): it runs
// every algorithm (or a chosen one) over a file or the built-in synthetic
// corpus and prints measured compression/decompression throughput and ratio
// for this machine's software codecs, side by side with the calibrated Xeon
// model the experiments use.
//
// Usage:
//
//	lzbench                       # built-in corpus, all algorithms
//	lzbench -file data.bin        # a specific input
//	lzbench -algo zstd -levels    # one algorithm across levels
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/xeon"
)

func main() {
	file := flag.String("file", "", "input file (default: built-in 8 MiB synthetic mix)")
	algoName := flag.String("algo", "", "benchmark a single algorithm (snappy, zstd, flate, brotli, gipfeli, lzo)")
	levels := flag.Bool("levels", false, "sweep compression levels (heavyweight algorithms)")
	iters := flag.Int("iters", 3, "timing iterations (best-of)")
	flag.Parse()

	data, err := loadInput(*file)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lzbench:", err)
		os.Exit(1)
	}
	fmt.Printf("input: %.1f MB\n", float64(len(data))/1e6)
	fmt.Printf("%-14s %10s %10s %8s %14s %14s\n",
		"codec", "comp-MB/s", "dec-MB/s", "ratio", "xeon-comp-GB/s", "xeon-dec-GB/s")

	algos := comp.Algorithms
	if *algoName != "" {
		a, err := comp.ParseAlgorithm(*algoName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lzbench:", err)
			os.Exit(1)
		}
		algos = []comp.Algorithm{a}
	}
	for _, a := range algos {
		levelSet := []int{0}
		if *levels && a.Heavyweight() {
			levelSet = []int{-5, 1, 3, 6, 9, 12, 19}
		}
		for _, level := range levelSet {
			if err := runOne(a, level, data, *iters); err != nil {
				fmt.Fprintf(os.Stderr, "lzbench: %v-%d: %v\n", a, level, err)
				os.Exit(1)
			}
		}
	}
}

func loadInput(path string) ([]byte, error) {
	if path != "" {
		return os.ReadFile(path)
	}
	// Built-in mix: a slice of each corpus family.
	var data []byte
	for i, k := range corpus.Kinds {
		data = append(data, corpus.Generate(k, 1<<20, int64(i))...)
	}
	return data, nil
}

func runOne(a comp.Algorithm, level int, data []byte, iters int) error {
	var enc []byte
	compTime := time.Duration(1<<62 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		var err error
		enc, err = comp.CompressCall(a, level, 0, data)
		if err != nil {
			return err
		}
		if d := time.Since(start); d < compTime {
			compTime = d
		}
	}
	decTime := time.Duration(1<<62 - 1)
	for i := 0; i < iters; i++ {
		start := time.Now()
		out, err := comp.DecompressCall(a, enc)
		if err != nil {
			return err
		}
		if len(out) != len(data) {
			return fmt.Errorf("round trip length mismatch")
		}
		if d := time.Since(start); d < decTime {
			decTime = d
		}
	}
	name := a.String()
	if level != 0 {
		name = fmt.Sprintf("%s -%d", name, level)
	}
	mbps := func(d time.Duration) float64 {
		return float64(len(data)) / d.Seconds() / 1e6
	}
	fmt.Printf("%-14s %10.1f %10.1f %8.3f %14.2f %14.2f\n",
		name, mbps(compTime), mbps(decTime),
		float64(len(data))/float64(len(enc)),
		xeon.ThroughputGBps(a, comp.Compress, level),
		xeon.ThroughputGBps(a, comp.Decompress, level),
	)
	return nil
}
