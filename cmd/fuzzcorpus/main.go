// Command fuzzcorpus (re)generates the checked-in fuzz seed corpora under
// each hardened package's testdata/fuzz/ directory, in the native Go fuzzing
// encoding. Seeds are derived from the real encoders plus a handful of
// adversarial shapes (forged length and size fields, bare magic,
// truncations), so `make fuzz-smoke` starts from meaningful structure instead
// of empty input.
//
// Run from the repository root: go run ./cmd/fuzzcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"cdpu/internal/gipfeli"
	"cdpu/internal/lzo"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

func main() {
	text := bytes.Repeat([]byte("seed corpus for the decode fuzzers. "), 16)
	runs := bytes.Repeat([]byte{0xC3}, 300)

	writeSeeds("internal/snappy", "FuzzDecompress", [][]byte{
		snappy.Encode(text),
		snappy.Encode(runs),
		snappy.Encode(nil),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0x0f}, // forged huge length header
		snappy.Encode(text)[:10],             // truncated
		append([]byte{0x80, 0x80, 0x40}, snappy.Encode(runs)[2:]...), // header declares 1 MiB over a 300-byte body
	})
	zc, err := zstdlite.NewEncoder(zstdlite.Params{Checksum: true})
	check(err)
	writeSeeds("internal/zstdlite", "FuzzDecompress", [][]byte{
		zstdlite.Encode(text),
		zstdlite.Encode(runs),
		zc.Encode(text),
		[]byte{'Z', 'S', 'L', '1'}, // bare magic
		zstdlite.Encode(text)[:12], // truncated
		forgedStreamFrame(1 << 40),
		forgedStreamFrame(1 << 63),
	})
	writeSeeds("internal/lzo", "FuzzDecompress", [][]byte{
		lzo.Encode(text, 1),
		lzo.Encode(runs, lzo.MaxLevel),
		{0xff, 0xff, 0xff, 0xff, 0x0f},
	})
	writeSeeds("internal/gipfeli", "FuzzDecompress", [][]byte{
		gipfeli.Encode(text),
		gipfeli.Encode(runs),
		{0xff, 0xff, 0xff, 0xff, 0x0f},
	})

	// Differential harness seeds: (payload, corruption seed) pairs.
	var diff []string
	for i, payload := range [][]byte{text, runs, []byte("x"), nil} {
		diff = append(diff, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nint64(%d)\n", payload, i+1))
	}
	writeRaw("internal/fault", "FuzzDifferential", diff)
}

// forgedStreamFrame is a streaming frame whose only block declares 16 raw
// bytes and a compressed body of compSize: what a decoder sizing a buffer on
// the header's word would try to allocate (TestStreamForgedCompressedSize).
func forgedStreamFrame(compSize uint64) []byte {
	const unknownSize, compressedLast = 0x40, 2<<1 | 1
	return binary.AppendUvarint([]byte{'Z', 'S', 'L', '1', 17 | unknownSize, compressedLast, 16}, compSize)
}

func writeSeeds(pkg, target string, seeds [][]byte) {
	var enc []string
	for _, s := range seeds {
		enc = append(enc, fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", s))
	}
	writeRaw(pkg, target, enc)
}

func writeRaw(pkg, target string, seeds []string) {
	dir := filepath.Join(pkg, "testdata", "fuzz", target)
	check(os.MkdirAll(dir, 0o755))
	for i, s := range seeds {
		name := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
		check(os.WriteFile(name, []byte(s), 0o644))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "fuzzcorpus:", err)
		os.Exit(1)
	}
}
