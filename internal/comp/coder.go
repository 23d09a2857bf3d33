package comp

import (
	"fmt"

	"cdpu/internal/gipfeli"
	"cdpu/internal/lzo"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// zstdKey identifies one zstdlite-backed encoder configuration.
type zstdKey struct {
	algo      Algorithm
	level     int
	windowLog int
}

// Coder is the one compression dispatch. It builds each concrete encoder (and
// its LZ77 hash tables, the dominant per-call allocation) once per distinct
// parameter set and reuses it for every subsequent call, appending output
// into caller-owned buffers. Fleet traffic cycles through a handful of
// (algorithm, level, window) combinations, so a replay worker's Coder
// converges to a small fixed working set and the synthesis hot path stops
// allocating. CompressCall and SizeCall lease a Coder from a package pool for
// the length of one call; what they hand back is a copy, or a length.
//
// A Coder is not safe for concurrent use; parallel replays give each worker
// its own.
type Coder struct {
	snap  *snappy.Encoder
	zstd  map[zstdKey]*zstdlite.Encoder
	frame []byte // the one-shot calls' output scratch
}

// NewCoder returns an empty Coder; encoders materialize on first use.
func NewCoder() *Coder { return new(Coder) }

// Plan is what a Coder records of the frame it just produced, for the
// algorithms a planned decompression replay covers: the structure a
// decompressor model would otherwise parse back out of the frame. At most one
// field is set — ZStd for zstdlite-backed algorithms (ZStd, Flate, Brotli),
// Snappy for Snappy, neither for Gipfeli and LZO. A Plan aliases the pooled
// encoder's scratch and is valid only until the next compression of the same
// (algo, level, window) through this Coder.
type Plan struct {
	ZStd   *zstdlite.Plan
	Snappy *snappy.Plan
}

// AppendCompress compresses src under the given algorithm, level and window
// log (0 means the algorithm default for both), appending the encoded bytes
// to dst.
func (c *Coder) AppendCompress(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, error) {
	out, _, err := c.appendCompress(dst, a, level, windowLog, src, false, false)
	return out, err
}

// AppendCompressSizeOnly is AppendCompress with the encoder's size-only mode
// on (zstdlite.Encoder.SetSizeOnly, snappy.Encoder.SetSizeOnly), returning the
// frame's Plan — the record a planned decompression replay
// (core.Device.ExecWithPlan) charges from without re-parsing the frame. Frame
// layout, Plan and encoded length are those of the full encoder, but ZStd's
// entropy payloads are zeros and Snappy's literal payloads are unwritten. The
// frame is NOT decodable — it exists for plan-charging replay pipelines that
// model decode cost from the Plan and only consume the frame's length.
// Gipfeli and LZO have no plan, so they always encode in full.
func (c *Coder) AppendCompressSizeOnly(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, Plan, error) {
	return c.appendCompress(dst, a, level, windowLog, src, true, true)
}

// AppendCompressPlanSizeOnly is AppendCompressSizeOnly as callers that know
// only the ZStd plan take it: a nil plan sends them to a real decode, so every
// frame outside the zstdlite family, Snappy's included, is encoded in full,
// stays decodable and records no plan.
func (c *Coder) AppendCompressPlanSizeOnly(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, *zstdlite.Plan, error) {
	out, p, err := c.appendCompress(dst, a, level, windowLog, src, a != Snappy, a != Snappy)
	return out, p.ZStd, err
}

// appendCompress is the one dispatch. A Snappy plan costs its encoder a
// 24-byte record per element, so it is recorded only when wanted; zstdlite
// records its plan as it carves blocks, wanted or not.
func (c *Coder) appendCompress(dst []byte, a Algorithm, level, windowLog int, src []byte, wantPlan, sizeOnly bool) ([]byte, Plan, error) {
	switch a {
	case Snappy:
		if c.snap == nil {
			e, err := snappy.NewEncoder(snappy.EncoderConfig{})
			if err != nil {
				return nil, Plan{}, err
			}
			c.snap = e
		}
		if !wantPlan {
			return c.snap.AppendEncode(dst, src), Plan{}, nil
		}
		c.snap.SetSizeOnly(sizeOnly)
		out, plan := c.snap.AppendEncodeWithPlan(dst, src)
		c.snap.SetSizeOnly(false)
		return out, Plan{Snappy: plan}, nil
	case Gipfeli, LZO:
		return append(dst, encodeStateless(a, level, src)...), Plan{}, nil
	case ZStd, Flate, Brotli:
		e, err := c.zstdEncoder(a, level, windowLog)
		if err != nil {
			return nil, Plan{}, err
		}
		e.SetSizeOnly(sizeOnly)
		out, plan := e.AppendEncodeWithPlan(dst, src)
		e.SetSizeOnly(false)
		return out, Plan{ZStd: plan}, nil
	default:
		return nil, Plan{}, fmt.Errorf("comp: unknown algorithm %v", a)
	}
}

// encodeStateless is Gipfeli and LZO, whose encoders keep nothing between
// calls: a frame in a slice of its own.
func encodeStateless(a Algorithm, level int, src []byte) []byte {
	if a == Gipfeli {
		return gipfeli.Encode(src)
	}
	if level == 0 {
		level = 1
	}
	return lzo.Encode(src, level)
}

// zstdEncoder returns the pooled zstdlite encoder for the key, building it
// on first use.
func (c *Coder) zstdEncoder(a Algorithm, level, windowLog int) (*zstdlite.Encoder, error) {
	key := zstdKey{algo: a, level: level, windowLog: windowLog}
	e := c.zstd[key]
	if e == nil {
		p, err := zstdParams(a, level, windowLog)
		if err != nil {
			return nil, err
		}
		e, err = zstdlite.NewEncoder(p)
		if err != nil {
			return nil, err
		}
		if c.zstd == nil {
			c.zstd = make(map[zstdKey]*zstdlite.Encoder)
		}
		c.zstd[key] = e
	}
	return e, nil
}
