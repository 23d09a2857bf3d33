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
// allocating. CompressCall is a Coder used once.
//
// A Coder is not safe for concurrent use; parallel replays give each worker
// its own.
type Coder struct {
	snap *snappy.Encoder
	zstd map[zstdKey]*zstdlite.Encoder
}

// NewCoder returns an empty Coder; encoders materialize on first use.
func NewCoder() *Coder { return new(Coder) }

// AppendCompress compresses src under the given algorithm, level and window
// log (0 means the algorithm default for both), appending the encoded bytes
// to dst.
func (c *Coder) AppendCompress(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, error) {
	out, _, err := c.appendCompress(dst, a, level, windowLog, src, false)
	return out, err
}

// AppendCompressPlan is AppendCompress that additionally returns the frame
// Plan for zstdlite-backed algorithms (ZStd, Flate, Brotli) — the structural
// record a planned decompression replay charges from without re-parsing the
// frame. For other algorithms the plan is nil. The returned Plan aliases the
// pooled encoder's scratch and is valid only until the next compression of
// the same (algo, level, window) through this Coder.
func (c *Coder) AppendCompressPlan(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, *zstdlite.Plan, error) {
	return c.appendCompress(dst, a, level, windowLog, src, false)
}

// AppendCompressPlanSizeOnly is AppendCompressPlan with zstdlite's size-only
// entropy coding enabled: frame layout, Plan, and encoded length are
// bit-identical to the full encoder's, but entropy payloads are zeros of the
// exact length the coders would emit. The frame is NOT decodable — it exists
// for plan-charging replay pipelines that model decode cost from the Plan and
// only consume the frame's length. Algorithms outside the zstdlite family
// (Snappy, Gipfeli, LZO) have byte-parsing decoders, so they always encode in
// full.
func (c *Coder) AppendCompressPlanSizeOnly(dst []byte, a Algorithm, level, windowLog int, src []byte) ([]byte, *zstdlite.Plan, error) {
	return c.appendCompress(dst, a, level, windowLog, src, true)
}

func (c *Coder) appendCompress(dst []byte, a Algorithm, level, windowLog int, src []byte, sizeOnly bool) ([]byte, *zstdlite.Plan, error) {
	switch a {
	case Snappy:
		if c.snap == nil {
			e, err := snappy.NewEncoder(snappy.EncoderConfig{})
			if err != nil {
				return nil, nil, err
			}
			c.snap = e
		}
		return c.snap.AppendEncode(dst, src), nil, nil
	case Gipfeli:
		return append(dst, gipfeli.Encode(src)...), nil, nil
	case LZO:
		if level == 0 {
			level = 1
		}
		return append(dst, lzo.Encode(src, level)...), nil, nil
	case ZStd, Flate, Brotli:
		e, err := c.zstdEncoder(a, level, windowLog)
		if err != nil {
			return nil, nil, err
		}
		e.SetSizeOnly(sizeOnly)
		out, plan := e.AppendEncodeWithPlan(dst, src)
		e.SetSizeOnly(false)
		return out, plan, nil
	default:
		return nil, nil, fmt.Errorf("comp: unknown algorithm %v", a)
	}
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
