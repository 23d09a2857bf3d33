package fault

import (
	"fmt"

	"cdpu/internal/prng"
)

// StormKind classifies one chaos-injected device fault at call granularity —
// the three ways a hyperscale deployment sees an offload engine misbehave.
type StormKind int

const (
	// StormBitFlip corrupts the call's payload on the device path (DMA or
	// link corruption). The host's copy is intact, so the software fallback
	// can still serve the call; the device either detects the corruption
	// mid-decode or the result fails its end-to-end checksum. Not transient:
	// re-reading the same corrupt device buffer cannot succeed, so recovery
	// skips retries.
	StormBitFlip StormKind = iota
	// StormMemFault makes the device's memory system return an error
	// response (bus error, poisoned line, timed-out completion). Transient.
	StormMemFault
	// StormWatchdog blows the call's latency past its cycle budget (hung
	// unit, runaway link retraining), tripping the watchdog. Transient.
	StormWatchdog
)

// StormKinds lists all storm kinds in a stable order.
var StormKinds = []StormKind{StormBitFlip, StormMemFault, StormWatchdog}

func (k StormKind) String() string {
	switch k {
	case StormBitFlip:
		return "bit-flip"
	case StormMemFault:
		return "memory-fault"
	case StormWatchdog:
		return "watchdog"
	default:
		return fmt.Sprintf("StormKind(%d)", int(k))
	}
}

// Storm is a seeded per-call chaos schedule for fleet replays: which calls a
// fault storm hits, with which fault kind, and for how many consecutive
// dispatch attempts the fault persists. Every decision is a pure function of
// (Seed, call index) on a splitmix64 stream independent of the replay's own
// sampling streams, so storms reproduce byte-identically at any worker count
// and adding a storm never perturbs the underlying call mix.
type Storm struct {
	// Seed keys the chaos stream (independent of the replay seed).
	Seed int64
	// Rate is the probability a call is hit, in [0, 1].
	Rate float64
	// Kinds is the set the storm draws from; nil/empty means all StormKinds.
	Kinds []StormKind
	// MeanRepeats is the expected number of *additional* consecutive faulted
	// dispatch attempts after the first (geometric tail, capped at 16): 0
	// means a hit call faults once and a single retry clears it; higher
	// values model faults that outlive several retries. Bit-flip hits ignore
	// it (the payload stays corrupt regardless of attempts).
	MeanRepeats float64
}

// maxRepeats bounds the geometric tail so a pathological draw cannot make a
// single call consume unbounded attempts.
const maxRepeats = 16

// stormSalt decorrelates the chaos stream from the replay's per-call
// sampling stream (which keys on seed ^ (call+1)*phi) and from the backoff
// stream in internal/resil.
const stormSalt = 0x5707e57a5eed77d1

// Draw returns the chaos decision for one call: whether the storm hits it,
// the fault kind, and the number of consecutive dispatch attempts the fault
// persists for (>= 1 when hit). Pure in (s, call).
func (s *Storm) Draw(call int) (kind StormKind, repeats int, hit bool) {
	if s == nil || s.Rate <= 0 {
		return 0, 0, false
	}
	r := prng.New((uint64(s.Seed) ^ stormSalt) + (uint64(call)+1)*prng.Gamma)
	if r.Float64() >= s.Rate {
		return 0, 0, false
	}
	kinds := s.Kinds
	if len(kinds) == 0 {
		kinds = StormKinds
	}
	kind = kinds[r.Intn(len(kinds))]
	repeats = 1
	if s.MeanRepeats > 0 {
		// Geometric with mean 1 + MeanRepeats: continue with probability
		// m/(1+m) per step.
		p := s.MeanRepeats / (1 + s.MeanRepeats)
		for repeats < maxRepeats && r.Float64() < p {
			repeats++
		}
	}
	return kind, repeats, true
}

// MutationSeed derives the payload-corruption seed for a bit-flip hit on one
// call, from the same keyed stream family but offset so it never collides
// with Draw's own draws.
func (s *Storm) MutationSeed(call int) int64 {
	return int64(prng.Mix((uint64(s.Seed)^stormSalt^0xffff0000ffff0000)+(uint64(call)+1)*prng.Gamma) >> 1)
}
