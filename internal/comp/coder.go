package comp

import (
	"fmt"

	"cdpu/internal/gipfeli"
	"cdpu/internal/lzo"
	"cdpu/internal/obs"
	"cdpu/internal/snappy"
	"cdpu/internal/zstdlite"
)

// metricEncoderBuilds counts the zstdlite encoders Coders build, each with
// its LZ77 table: in a steady state it stands still.
var metricEncoderBuilds = obs.Default().Counter("comp.encoder_builds")

// Coder is the one compression dispatch. It builds each concrete encoder (and
// its LZ77 hash table, the dominant per-call allocation) once and reuses it
// for every later call, appending output into caller-owned buffers. It keeps
// one zstdlite encoder per (algorithm, table shape) it has served and sets
// each frame's window on it, as a CDPU fixes its match table when generated
// and takes the window at run time (§5.8): whatever levels and windows fleet
// traffic spans, ZStd has four shapes, Flate one and Brotli two. CompressCall
// and SizeCall lease a Coder for one call and hand back a copy, or a length.
//
// A Coder is not safe for concurrent use; parallel replays give each worker
// its own.
type Coder struct {
	snap  *snappy.Encoder
	zstd  [3][zstdlite.Shapes]*zstdlite.Encoder // by algorithm (ZStd, Flate, Brotli) and table shape
	frame []byte                                // the one-shot calls' output scratch
}

// NewCoder returns an empty Coder; encoders materialize on first use.
func NewCoder() *Coder { return new(Coder) }

// Plan is what a Coder records of the frame it just produced, for the
// algorithms a planned decompression replay covers: the structure a
// decompressor model would otherwise parse back out of the frame. At most one
// field is set — ZStd for zstdlite-backed algorithms (ZStd, Flate, Brotli),
// Snappy for Snappy, neither for Gipfeli and LZO. A Plan aliases the
// encoder's scratch and is valid only until the next compression through this
// Coder of the same algorithm and table shape (zstdlite.Shape), at any level
// and window of that shape.
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

// zstdEncoder returns the Coder's zstdlite encoder for the algorithm and the
// level's table shape, building it on first use, with its window set to this
// frame's.
func (c *Coder) zstdEncoder(a Algorithm, level, windowLog int) (*zstdlite.Encoder, error) {
	p, err := zstdParams(a, level, windowLog)
	if err != nil {
		return nil, err
	}
	e := &c.zstd[a-ZStd][zstdlite.Shape(p.Level)]
	if *e == nil {
		if *e, err = zstdlite.NewEncoder(p); err != nil {
			return nil, err
		}
		metricEncoderBuilds.Inc()
	}
	return *e, (*e).SetWindowLog(p.WindowLog)
}
