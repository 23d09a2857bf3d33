// Package comp defines the compression-algorithm taxonomy used throughout
// the repository — the six fleet algorithms the paper profiles (§2.2, Figure
// 1) and the compress/decompress operation pair — and dispatches functional
// (de)compression calls to the concrete codec implementing each algorithm.
//
// Flate and Brotli are mapped onto zstdlite configurations that match their
// architectural profile (LZ77 + entropy coding with the appropriate window
// and effort); the paper's fleet analyses only require that each algorithm
// class exhibit its characteristic ratio/cost position, which these adapters
// preserve. DESIGN.md records the substitution.
package comp

import (
	"bytes"
	"fmt"
	"strings"

	"cdpu/internal/brotlidict"
	"cdpu/internal/gipfeli"
	"cdpu/internal/lzo"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// Algorithm identifies a fleet (de)compression algorithm.
type Algorithm int

const (
	Snappy Algorithm = iota
	ZStd
	Flate
	Brotli
	Gipfeli
	LZO
)

// Algorithms lists all fleet algorithms in Figure 1's order.
var Algorithms = []Algorithm{Snappy, ZStd, Flate, Brotli, Gipfeli, LZO}

func (a Algorithm) String() string {
	switch a {
	case Snappy:
		return "Snappy"
	case ZStd:
		return "ZSTD"
	case Flate:
		return "Flate"
	case Brotli:
		return "Brotli"
	case Gipfeli:
		return "Gipfeli"
	case LZO:
		return "LZO"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ParseAlgorithm is the inverse of String, ignoring case: the one place a
// command-line algorithm name is resolved.
func ParseAlgorithm(name string) (Algorithm, error) {
	for _, a := range Algorithms {
		if strings.EqualFold(name, a.String()) {
			return a, nil
		}
	}
	return 0, fmt.Errorf("unknown algorithm %q", name)
}

// Heavyweight reports the paper's qualitative class (§2.2): heavyweight
// algorithms prioritize ratio via sophisticated entropy coding and large
// parameter spaces; lightweight ones prioritize speed.
func (a Algorithm) Heavyweight() bool {
	switch a {
	case ZStd, Flate, Brotli:
		return true
	default:
		return false
	}
}

// Op is a compression direction.
type Op int

const (
	Compress Op = iota
	Decompress
)

// Ops lists both directions.
var Ops = []Op{Compress, Decompress}

func (o Op) String() string {
	if o == Compress {
		return "C"
	}
	return "D"
}

// DefaultLevel returns the level services most commonly pass for an
// algorithm (ZStd's fleet default is 3, §3.3.2); algorithms without levels
// return 0.
func (a Algorithm) DefaultLevel() int {
	switch a {
	case ZStd, Flate:
		return 3
	case Brotli:
		return 2
	case LZO:
		return 1
	default:
		return 0
	}
}

// zstdParams maps adapter algorithms onto zstdlite parameters, validated.
func zstdParams(a Algorithm, level, windowLog int) (zstdlite.Params, error) {
	p := zstdlite.Params{Level: level, WindowLog: windowLog}
	switch a {
	case ZStd:
	case Flate:
		// Flate: 32 KiB window, levels 1-9, Huffman-only entropy (no FSE
		// stage — the architectural difference §3.4 highlights).
		p.WindowLog = 15
		p.DisableFSE = true
		p.Level = min(max(level, 1), 9)
	case Brotli:
		// Brotli: levels 0-11, large windows, and the built-in static
		// dictionary that is its architectural signature.
		p.Level = min(max(level, 1), 11)
		if windowLog == 0 {
			p.WindowLog = 22
		}
		p.Dict = brotlidict.Dict()
	default:
		return p, fmt.Errorf("comp: %v is not a zstdlite-backed algorithm", a)
	}
	return p, p.Validate()
}

// coders is the lease of idle Coders the one-shot calls take (Gipfeli and LZO
// take none): a channel, not a sync.Pool, so whether a call finds one depends
// on neither the collector nor the caller's P. It keeps eight, the most
// workers exp runs by default, each with an encoder per table shape it has
// served and scratch of its largest payload; a Coder returned to a full lease,
// or after more than maxLeasedPayload bytes, is dropped.
var coders = make(chan *Coder, 8)

const maxLeasedPayload = 4 << 20

// leaseCoder takes an idle Coder, or builds one.
func leaseCoder() *Coder {
	select {
	case c := <-coders:
		return c
	default:
		return new(Coder)
	}
}

// release returns a leased Coder that has just served n bytes to the lease.
// A call that panics never gets here, so a Coder a bug left half-updated is
// not reused.
func (c *Coder) release(n int) {
	if n > maxLeasedPayload {
		return
	}
	select {
	case coders <- c:
	default:
	}
}

// CompressCall compresses src under the given algorithm, level and window
// log (0 means the algorithm default for both). It is safe for concurrent
// use. The frame is encoded in a leased Coder's scratch and returned as a
// copy of exactly its length: the caller owns it, and nothing leased aliases
// it.
func CompressCall(a Algorithm, level, windowLog int, src []byte) ([]byte, error) {
	if a == Gipfeli || a == LZO {
		return encodeStateless(a, level, src), nil
	}
	c := leaseCoder()
	out, err := c.AppendCompress(c.frame[:0], a, level, windowLog, src)
	if err == nil {
		c.frame, out = out[:0], bytes.Clone(out)
	}
	c.release(len(src))
	return out, err
}

// SizeCall is the length of the frame CompressCall would return, from a
// size-only encode (AppendCompressPlanSizeOnly) that never leaves the leased
// Coder's scratch.
func SizeCall(a Algorithm, level, windowLog int, src []byte) (int, error) {
	if a == Gipfeli || a == LZO {
		return len(encodeStateless(a, level, src)), nil
	}
	c := leaseCoder()
	out, _, err := c.AppendCompressPlanSizeOnly(c.frame[:0], a, level, windowLog, src)
	if err == nil {
		c.frame = out[:0]
	}
	c.release(len(src))
	return len(out), err
}

// DecompressCall decompresses src under the given algorithm.
func DecompressCall(a Algorithm, src []byte) ([]byte, error) {
	switch a {
	case Snappy:
		return snappy.Decode(src)
	case Gipfeli:
		return gipfeli.Decode(src)
	case LZO:
		return lzo.Decode(src)
	case ZStd, Flate:
		return zstdlite.Decode(src)
	case Brotli:
		return zstdlite.DecodeWithDict(src, brotlidict.Dict())
	default:
		return nil, fmt.Errorf("comp: unknown algorithm %v", a)
	}
}
