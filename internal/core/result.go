package core

import (
	"fmt"
	"sort"

	"cdpu/internal/obs"
)

// Block names used in cycle attribution, one per hardware block of Figures 9
// and 10 that contributes call latency.
const (
	BlockInvocation  = "invocation"    // RoCC dispatch + setup + doorbell RTTs
	BlockStream      = "stream"        // memloader/memwriter link occupancy exposed past execution
	BlockFirstAccess = "first-access"  // initial request latency before data flows
	BlockLZ77        = "lz77"          // encoder hash pipeline or decoder copy engine
	BlockHistFall    = "hist-fallback" // off-chip history lookups (decode only)
	BlockHuffBuild   = "huff-table"    // Huffman table build (either direction)
	BlockHuff        = "huffman"       // Huffman encode/expand
	BlockFSEBuild    = "fse-table"     // FSE table build
	BlockFSE         = "fse"           // FSE encode/expand
	BlockHeader      = "header"        // frame/block/section parsing or emission
)

// blockID indexes a call's attribution accumulator. The ids are declared in
// the canonical accumulation order of the attribution.
type blockID uint8

const (
	idInvocation blockID = iota
	idFirstAccess
	idStream
	idHeader
	idLZ77
	idHistFall
	idHuffBuild
	idHuff
	idFSEBuild
	idFSE
	numBlocks
)

// blockOrder names the blocks in canonical order. Cycles is defined as the
// sum of Blocks in exactly this order (BlockSum), so the sum-invariant holds
// bit-exactly: float addition is order-dependent, and iterating a map would
// make the "same" sum drift by ulps between runs.
var blockOrder = [numBlocks]string{
	idInvocation: BlockInvocation, idFirstAccess: BlockFirstAccess, idStream: BlockStream,
	idHeader: BlockHeader, idLZ77: BlockLZ77, idHistFall: BlockHistFall,
	idHuffBuild: BlockHuffBuild, idHuff: BlockHuff, idFSEBuild: BlockFSEBuild, idFSE: BlockFSE,
}

// Result reports one accelerator call.
type Result struct {
	// Output is the produced payload (compressed or decompressed bytes). From
	// a planned decompression (Device.ExecWithPlan) it is the caller's content
	// slice itself, not a copy: valid while the caller leaves content alone.
	Output []byte
	// InputBytes and OutputBytes are payload sizes.
	InputBytes  int
	OutputBytes int
	// UncompressedBytes is the plaintext size of the call regardless of
	// direction, the normalizer for throughput metrics.
	UncompressedBytes int
	// Cycles is the modeled end-to-end call latency in accelerator cycles,
	// "from the perspective of software" (§6.1): invocation through
	// completion, no request overlapping.
	Cycles float64
	// Blocks is the per-block cycle attribution. Unlike a naive per-stage
	// breakdown, it attributes the critical path exactly: streaming that is
	// hidden behind execution charges nothing here (the full link occupancy
	// is StreamCycles), so BlockSum() — and therefore the sum of Blocks —
	// equals Cycles bit-exactly.
	Blocks map[string]float64
	// StreamCycles is the full memloader/memwriter link occupancy of the
	// call, whether or not execution hides it. Blocks[BlockStream] carries
	// only the exposed portion (max(StreamCycles - exec, 0)).
	StreamCycles float64
	// Spans is the call's block timeline (cycles relative to invocation),
	// populated only when tracing is enabled on the instance.
	Spans []obs.Span

	// acc is the attribution while the call is being charged: the timing walk
	// issues one charge per LZ77 command, so it adds into an array and finish
	// materialises Blocks once. charged marks the blocks that took a charge (a
	// zero-cycle charge still names its block in Blocks).
	acc     [numBlocks]float64
	charged [numBlocks]bool

	traced bool    // emit Spans on every charge
	cursor float64 // running start position for the next span
}

// resetResult prepares r for a new call, keeping its allocated Blocks map
// and span backing — the recycling step behind SetResultReuse.
func resetResult(r *Result, traced bool) *Result {
	*r = Result{Blocks: r.Blocks, Spans: r.Spans[:0], traced: traced}
	return r
}

// charge attributes cycles to a block, advancing the call timeline.
func (r *Result) charge(block blockID, cycles float64) {
	r.chargeBytes(block, cycles, 0)
}

// chargeBytes is charge with the payload bytes the block moved, recorded on
// the span when tracing. Adjacent same-block spans coalesce (per-command LZ77
// charges would otherwise mint one span per sequence).
func (r *Result) chargeBytes(block blockID, cycles float64, bytes int) {
	r.acc[block] += cycles
	r.charged[block] = true
	if r.traced {
		name := blockOrder[block]
		if n := len(r.Spans); n > 0 && r.Spans[n-1].Block == name && r.Spans[n-1].Start+r.Spans[n-1].Dur == r.cursor {
			r.Spans[n-1].Dur += cycles
			r.Spans[n-1].Bytes += bytes
		} else {
			r.Spans = append(r.Spans, obs.Span{Block: name, Start: r.cursor, Dur: cycles, Bytes: bytes})
		}
	}
	r.cursor += cycles
}

// accSum is BlockSum over the accumulator: the charged blocks in canonical
// order.
func (r *Result) accSum() float64 {
	s := 0.0
	for id, v := range r.acc {
		if r.charged[id] {
			s += v
		}
	}
	return s
}

// BlockSum returns the attribution total in canonical block order — by
// construction (finish) exactly Cycles for a completed call.
func (r *Result) BlockSum() float64 {
	s := 0.0
	for _, name := range blockOrder {
		if v, ok := r.Blocks[name]; ok {
			s += v
		}
	}
	return s
}

// finish folds the call-granularity costs into the attribution and seals
// Cycles as the canonical-order sum of Blocks. Execution overlaps the bulk
// stream, so only the stream's exposed portion (stream - exec, when positive)
// is attributed; the full occupancy is kept in StreamCycles. The resulting
// latency is max(exec, stream) + inv + first — the same composition as
// before, now decomposed so the parts sum to the whole bit-exactly.
func (r *Result) finish(inv, first, stream float64, linkBytes int) {
	exec := r.accSum()
	r.StreamCycles = stream
	traced := r.traced
	r.traced = false // span layout for the call-granularity costs is rebuilt below
	if exposed := stream - exec; exposed > 0 {
		r.chargeBytes(idStream, exposed, linkBytes)
	}
	r.charge(idInvocation, inv)
	r.charge(idFirstAccess, first)
	r.Cycles = r.accSum()
	// Calls touch well under 8 blocks, so a recycled Result's map never grows
	// past its first bucket.
	if r.Blocks == nil {
		r.Blocks = make(map[string]float64)
	} else {
		clear(r.Blocks)
	}
	for id, v := range r.acc {
		if r.charged[id] {
			r.Blocks[blockOrder[id]] = v
		}
	}
	if !traced {
		return
	}
	r.traced = true
	// Rewrite the trace to wall-clock order: invocation and the first-access
	// round trip precede execution (every exec span shifts right), and the
	// stream occupies the link for its full duration alongside execution —
	// the Figure-9/10 picture, not the attribution's exposed-only residue.
	lead := inv + first
	for i := range r.Spans {
		r.Spans[i].Start += lead
	}
	spans := make([]obs.Span, 0, len(r.Spans)+3)
	spans = append(spans,
		obs.Span{Block: BlockInvocation, Start: 0, Dur: inv},
		obs.Span{Block: BlockFirstAccess, Start: inv, Dur: first})
	if stream > 0 {
		spans = append(spans, obs.Span{Block: BlockStream, Start: lead, Dur: stream, Bytes: linkBytes})
	}
	r.Spans = append(spans, r.Spans...)
}

// Seconds converts the result's cycles to wall-clock seconds at freqGHz.
func (r *Result) Seconds(freqGHz float64) float64 {
	return r.Cycles / (freqGHz * 1e9)
}

// ThroughputGBps returns uncompressed-bytes-per-second in GB/s at freqGHz.
func (r *Result) ThroughputGBps(freqGHz float64) float64 {
	s := r.Seconds(freqGHz)
	if s == 0 {
		return 0
	}
	return float64(r.UncompressedBytes) / s / 1e9
}

// Ratio returns the compression ratio of the call (uncompressed/compressed).
func (r *Result) Ratio() float64 {
	c := r.InputBytes
	u := r.OutputBytes
	if u < c {
		c, u = u, c
	}
	if c == 0 {
		return 0
	}
	return float64(u) / float64(c)
}

// BlockString renders the per-block cycle attribution, largest first; equal
// charges (a zero-cycle charge still names its block) keep blockOrder.
func (r *Result) BlockString() string {
	type kv struct {
		k string
		v float64
	}
	var items []kv
	for _, k := range blockOrder {
		if v, ok := r.Blocks[k]; ok {
			items = append(items, kv{k, v})
		}
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].v > items[j].v })
	s := ""
	for _, it := range items {
		s += fmt.Sprintf("%-14s %12.0f cycles\n", it.k, it.v)
	}
	return s
}
