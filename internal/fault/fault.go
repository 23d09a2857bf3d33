// Package fault provides deterministic fault injection for the CDPU model,
// on two axes matching what a hyperscale deployment actually sees:
//
//   - Stream corruption (Mutate): seeded, reproducible mutations of a
//     compressed payload — bit flips, truncation, length-field corruption,
//     garbage tails — for driving decode paths through adversarial inputs.
//     The same (seed, kind, input) always yields the same corrupted bytes.
//
//   - Device faults (Plan): a memsys.FaultInjector whose schedule is a pure
//     function of the memory-event index — error responses, latency spikes,
//     stalled MSHRs — so degraded-hardware runs reproduce exactly regardless
//     of scheduling or worker count.
package fault

import (
	"fmt"

	"cdpu/internal/prng"
)

// Kind selects a stream-corruption strategy.
type Kind int

const (
	// BitFlip flips a seed-chosen handful of bits at seed-chosen positions.
	BitFlip Kind = iota
	// Truncate cuts the stream at a seed-chosen point, modeling a short read
	// or a partially written object.
	Truncate
	// LengthField overwrites bytes in the header region with high values,
	// forging declared lengths (the attack the size-limit hardening exists
	// for).
	LengthField
	// GarbageTail appends seed-chosen junk after the valid stream, modeling
	// buffer overrun on the write side.
	GarbageTail
)

// Kinds lists all corruption kinds in a stable order.
var Kinds = []Kind{BitFlip, Truncate, LengthField, GarbageTail}

func (k Kind) String() string {
	switch k {
	case BitFlip:
		return "bit-flip"
	case Truncate:
		return "truncate"
	case LengthField:
		return "length-field"
	case GarbageTail:
		return "garbage-tail"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Mutate returns a corrupted copy of enc according to (seed, kind). The input
// is never modified; the result is deterministic in all three arguments.
// Empty inputs come back empty (except GarbageTail, which still appends).
func Mutate(seed int64, kind Kind, enc []byte) []byte {
	// Mix the kind into the stream so the same seed yields independent
	// choices per corruption strategy.
	r := prng.New(uint64(seed)*prng.Gamma + uint64(kind) + 1)
	out := append([]byte(nil), enc...)
	switch kind {
	case BitFlip:
		if len(out) == 0 {
			return out
		}
		flips := 1 + r.Intn(4)
		for i := 0; i < flips; i++ {
			pos := r.Intn(len(out))
			out[pos] ^= 1 << uint(r.Intn(8))
		}
	case Truncate:
		if len(out) == 0 {
			return out
		}
		out = out[:r.Intn(len(out))]
	case LengthField:
		if len(out) == 0 {
			return out
		}
		// Length declarations live in the first few header bytes for every
		// format in this repo (Snappy varint, ZStd frame header, LZO/Gipfeli
		// varints). Setting high bits forges large or malformed sizes.
		region := min(8, len(out))
		hits := 1 + r.Intn(2)
		for i := 0; i < hits; i++ {
			out[r.Intn(region)] = byte(r.Next()) | 0x80
		}
	case GarbageTail:
		n := 1 + r.Intn(64)
		for i := 0; i < n; i++ {
			out = append(out, byte(r.Next()))
		}
	}
	return out
}
