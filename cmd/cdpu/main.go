// Command cdpu compresses or decompresses a file with the repository's
// codecs, optionally through a simulated CDPU instance — in which case it
// reports the modeled accelerator cycles, throughput and silicon area
// alongside the payload result.
//
// Usage:
//
//	cdpu -c -algo snappy in.bin out.sz            # software compress
//	cdpu -d -algo snappy out.sz roundtrip.bin     # software decompress
//	cdpu -c -algo zstd -level 7 in.bin out.zsl
//	cdpu -c -hw -placement chiplet -sram 8192 in.bin out.sz
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cdpu"
	"cdpu/internal/comp"
	"cdpu/internal/zstdlite"
)

func main() {
	compress := flag.Bool("c", false, "compress")
	decompress := flag.Bool("d", false, "decompress")
	algoName := flag.String("algo", "snappy", "algorithm: snappy, zstd, flate, brotli, gipfeli, lzo")
	level := flag.Int("level", 0, "compression level (heavyweight algorithms; 0 = default)")
	hw := flag.Bool("hw", false, "run through a simulated CDPU (snappy/zstd only) and report cycles")
	placementName := flag.String("placement", "rocc", "CDPU placement: rocc, chiplet, pcielocal, pcienocache")
	sram := flag.Int("sram", 64<<10, "CDPU history SRAM bytes")
	flag.Parse()

	if *compress == *decompress || flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: cdpu (-c|-d) [-algo A] [-hw] IN OUT")
		os.Exit(2)
	}
	algo, err := comp.ParseAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	in, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	// When decompressing without an explicit -algo, sniff the frame: the
	// zstdlite family carries a magic prefix, Snappy blocks do not.
	algoSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "algo" {
			algoSet = true
		}
	})
	if *decompress && !algoSet && zstdlite.IsFrame(in) {
		algo = cdpu.ZStd
		fmt.Fprintln(os.Stderr, "detected zstd-family frame")
	}

	var out []byte
	if *hw {
		placement, err := parsePlacement(*placementName)
		if err != nil {
			fatal(err)
		}
		cfg := cdpu.Config{Algo: algo, Placement: placement, HistorySRAM: *sram}
		if *decompress {
			cfg.Op = cdpu.OpDecompress
		}
		var res *cdpu.Result
		if *compress {
			c, err := cdpu.NewCompressor(cfg)
			if err != nil {
				fatal(err)
			}
			res, err = c.Compress(in)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "instance: %s  area: %.3f mm2\n", cfg.Name(), c.Area().Total())
		} else {
			d, err := cdpu.NewDecompressor(cfg)
			if err != nil {
				fatal(err)
			}
			res, err = d.Decompress(in)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "instance: %s  area: %.3f mm2\n", cfg.Name(), d.Area().Total())
		}
		fmt.Fprintf(os.Stderr, "cycles: %.0f  time@2GHz: %.3f ms  throughput: %.2f GB/s\n",
			res.Cycles, 1000*res.Seconds(2.0), res.ThroughputGBps(2.0))
		fmt.Fprintf(os.Stderr, "block breakdown:\n%s", res.BlockString())
		out = res.Output
	} else {
		if *compress {
			out, err = cdpu.Compress(algo, *level, 0, in)
		} else {
			out, err = cdpu.Decompress(algo, in)
		}
		if err != nil {
			fatal(err)
		}
	}
	if err := os.WriteFile(flag.Arg(1), out, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%d -> %d bytes (ratio %.3f)\n",
		len(in), len(out), float64(len(in))/float64(max(len(out), 1)))
}

func parsePlacement(name string) (cdpu.Placement, error) {
	switch strings.ToLower(name) {
	case "rocc":
		return cdpu.PlacementRoCC, nil
	case "chiplet":
		return cdpu.PlacementChiplet, nil
	case "pcielocal":
		return cdpu.PlacementPCIeLocalCache, nil
	case "pcienocache", "pcie":
		return cdpu.PlacementPCIeNoCache, nil
	default:
		return 0, fmt.Errorf("unknown placement %q", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cdpu:", err)
	os.Exit(1)
}
