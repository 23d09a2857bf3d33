// Command hcbgen generates HyperCompressBench suites (the paper's Section 4
// benchmark) and writes them to disk. Their validation against the fleet
// profile distributions (Figure 7) is `cdpubench -fig 7`.
//
// Usage:
//
//	hcbgen -out suites/ -files 500      # write the four suites to disk
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cdpu/internal/comp"
	"cdpu/internal/hcbench"
)

func main() {
	out := flag.String("out", "", "directory to write generated benchmark files into")
	files := flag.Int("files", 200, "files per suite (paper uses 8000-10000)")
	maxFile := flag.Int("maxfile", 4<<20, "max file size in bytes")
	seed := flag.Int64("seed", 1, "generation seed")
	flag.Parse()

	if *out == "" {
		fmt.Fprintln(os.Stderr, "specify -out DIR")
		os.Exit(2)
	}
	for _, ao := range []struct {
		algo comp.Algorithm
		op   comp.Op
	}{
		{comp.Snappy, comp.Compress},
		{comp.ZStd, comp.Compress},
		{comp.Snappy, comp.Decompress},
		{comp.ZStd, comp.Decompress},
	} {
		suite, err := hcbench.Generate(hcbench.Spec{
			Algo: ao.algo, Op: ao.op, N: *files,
			MaxFileBytes: *maxFile, Seed: *seed,
		})
		if err != nil {
			fatal(err)
		}
		dir := filepath.Join(*out, fmt.Sprintf("%v-%v", ao.algo, ao.op))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fatal(err)
		}
		manifest, err := os.Create(filepath.Join(dir, "MANIFEST.csv"))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintln(manifest, "file,bytes,level,window_log,target_ratio")
		for _, f := range suite.Files {
			if err := os.WriteFile(filepath.Join(dir, f.Name), f.Data, 0o644); err != nil {
				fatal(err)
			}
			fmt.Fprintf(manifest, "%s,%d,%d,%d,%.3f\n", f.Name, len(f.Data), f.Level, f.WindowLog, f.TargetRatio)
		}
		if err := manifest.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%v-%v: %d files, %.1f MB -> %s\n",
			ao.algo, ao.op, len(suite.Files), float64(suite.TotalUncompressedBytes())/1e6, dir)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hcbgen:", err)
	os.Exit(1)
}
