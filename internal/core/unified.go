package core

import (
	"fmt"

	"cdpu/internal/area"
	"cdpu/internal/comp"
	"cdpu/internal/zstdlite"
)

// Unified units support both fleet algorithms at run time (§5.8.1 parameter
// 2, "Algorithm support: RunT & CompileT"). The generator's reuse story is
// that the Snappy pipeline's blocks — system interface, LZ77 encoder/decoder,
// history SRAM, hash table — are shared with the ZStd pipeline, which only
// adds its entropy stages (the paper: "transitioning from Flate to ZStd
// would mostly entail adding an FSE module", §3.4). A unified unit therefore
// costs exactly the ZStd instance's area while serving Snappy calls too.

// UnifiedDecompressor serves Snappy and ZStd decompression through one set
// of shared blocks, routing per call via the command router.
type UnifiedDecompressor struct {
	snap *Decompressor
	zstd *Decompressor
}

// NewUnifiedDecompressor generates a dual-algorithm decompressor; cfg.Algo
// is ignored (both are supported).
func NewUnifiedDecompressor(cfg Config) (*UnifiedDecompressor, error) {
	cfg.Algo = comp.Snappy
	snap, err := NewDecompressor(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Algo = comp.ZStd
	zstd, err := NewDecompressor(cfg)
	if err != nil {
		return nil, err
	}
	return &UnifiedDecompressor{snap: snap, zstd: zstd}, nil
}

// Decompress routes the call to the matching pipeline by sniffing the frame:
// zstdlite frames carry a magic prefix, Snappy blocks a varint length.
func (u *UnifiedDecompressor) Decompress(src []byte) (*Result, error) {
	if zstdlite.IsFrame(src) {
		return u.zstd.Decompress(src)
	}
	return u.snap.Decompress(src)
}

// DecompressAs routes explicitly, for callers that know the algorithm.
func (u *UnifiedDecompressor) DecompressAs(a comp.Algorithm, src []byte) (*Result, error) {
	switch a {
	case comp.Snappy:
		return u.snap.Decompress(src)
	case comp.ZStd:
		return u.zstd.Decompress(src)
	default:
		return nil, fmt.Errorf("core: unified decompressor does not support %v", a)
	}
}

// Area returns the unit's silicon area: the ZStd instance's blocks, which
// are a superset of Snappy's (shared LZ77 decoder + history SRAM).
func (u *UnifiedDecompressor) Area() *area.Breakdown { return u.zstd.Area() }

// UnifiedCompressor serves Snappy and ZStd compression through shared
// dictionary-stage blocks.
type UnifiedCompressor struct {
	snap *Compressor
	zstd *Compressor
}

// NewUnifiedCompressor generates a dual-algorithm compressor; cfg.Algo is
// ignored.
func NewUnifiedCompressor(cfg Config) (*UnifiedCompressor, error) {
	cfg.Algo = comp.Snappy
	snap, err := NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	cfg.Algo = comp.ZStd
	zstd, err := NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	return &UnifiedCompressor{snap: snap, zstd: zstd}, nil
}

// Compress compresses src with the selected algorithm.
func (u *UnifiedCompressor) Compress(a comp.Algorithm, src []byte) (*Result, error) {
	switch a {
	case comp.Snappy:
		return u.snap.Compress(src)
	case comp.ZStd:
		return u.zstd.Compress(src)
	default:
		return nil, fmt.Errorf("core: unified compressor does not support %v", a)
	}
}

// Area returns the unit's silicon area (the ZStd instance's superset
// blocks).
func (u *UnifiedCompressor) Area() *area.Breakdown { return u.zstd.Area() }
