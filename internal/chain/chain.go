// Package chain models chained accelerator invocations, the scenario of the
// paper's §3.5.2: a data-access operation that runs a hardware protobuf
// (de)serializer and a CDPU back to back, with small CPU book-keeping steps
// between them (file formats interleave header writes, accumulation and
// accounting between the two accelerated stages).
//
// The placement question the paper raises is quantified here: near-core
// accelerators hand intermediate buffers to each other through the L2 at NoC
// bandwidth and let the CPU's interludes touch them for free, while remote
// accelerators pay the link for every handoff — the intermediate data
// crosses to the device and back around each CPU interlude, so the offload
// overhead is paid "multiple times" (§3.5.2).
package chain

import (
	"fmt"

	"cdpu/internal/memsys"
	"cdpu/internal/soc"
)

// interludeCycles is the CPU book-keeping between consecutive stages
// (file-format header writes, accounting; §3.5.2).
const interludeCycles = 600

// Stage is one accelerated step of a chained operation.
type Stage struct {
	// Name labels the stage ("deserialize", "compress", ...).
	Name string
	// BytesPerCycle is the stage engine's processing rate.
	BytesPerCycle float64
	// OutScale is output bytes per input byte (e.g. 0.5 for 2x compression,
	// 1.2 for serialization overhead).
	OutScale float64
}

// SerDes returns a protobuf-style (de)serializer stage; rates follow the
// hardware serializers the paper cites (tens of GB/s class).
func SerDes(name string, outScale float64) Stage {
	return Stage{Name: name, BytesPerCycle: 8, OutScale: outScale}
}

// Compressor returns a compression stage with the given rate and ratio.
func Compressor(bytesPerCycle, ratio float64) Stage {
	return Stage{Name: "compress", BytesPerCycle: bytesPerCycle, OutScale: 1 / ratio}
}

// Config describes a chained operation. Consecutive stages are separated by
// a fixed CPU interlude of interludeCycles.
type Config struct {
	// Placement locates every accelerator in the chain.
	Placement memsys.Placement
	// Stages in execution order.
	Stages []Stage
}

// Result reports one chained operation.
type Result struct {
	// Cycles is the end-to-end latency.
	Cycles float64
	// PerStage is each stage's contribution (invocation + transfer + exec).
	PerStage []float64
	// InterludeTransfer is the extra cycles spent moving intermediates
	// because the CPU had to touch them between remote stages.
	InterludeTransfer float64
	// OutputBytes is the final payload size.
	OutputBytes int
}

// Run computes the chained-operation latency for inputBytes of payload.
func Run(cfg Config, inputBytes int) (*Result, error) {
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("chain: no stages")
	}
	if inputBytes <= 0 {
		return nil, fmt.Errorf("chain: input bytes %d", inputBytes)
	}
	sys := &memsys.System{}
	iface := soc.New(sys)

	res := &Result{PerStage: make([]float64, len(cfg.Stages))}
	bytesIn := float64(inputBytes)
	for i, st := range cfg.Stages {
		if st.BytesPerCycle <= 0 || st.OutScale <= 0 {
			return nil, fmt.Errorf("chain: stage %q misconfigured", st.Name)
		}
		bytesOut := bytesIn * st.OutScale
		// Every stage pays its invocation and streams its input and output.
		// Near-core, intermediates live in L2 and stream at NoC width;
		// remote placements pay the link both ways.
		stage := iface.InvocationCycles(cfg.Placement) +
			sys.RTT(cfg.Placement, memsys.ClassRaw) +
			(bytesIn+bytesOut)/sys.StreamBandwidth(cfg.Placement, memsys.ClassRaw) +
			bytesIn/st.BytesPerCycle
		res.PerStage[i] = stage
		res.Cycles += stage
		if i < len(cfg.Stages)-1 {
			// CPU interlude: the book-keeping itself, plus — for remote
			// accelerators — the intermediate buffer crossing back to the
			// host and out to the next device once more than the raw
			// streaming already accounted for.
			res.Cycles += interludeCycles
			if link := cfg.Placement.LinkLatencyNs(); link > 0 {
				extra := 2*sys.RTT(cfg.Placement, memsys.ClassRaw) +
					bytesOut/sys.StreamBandwidth(cfg.Placement, memsys.ClassRaw)
				res.InterludeTransfer += extra
				res.Cycles += extra
			}
		}
		bytesIn = bytesOut
	}
	res.OutputBytes = int(bytesIn)
	return res, nil
}

// WritePath returns the canonical §3.5.2 chain: serialize then compress,
// with file-format book-keeping in between.
func WritePath(placement memsys.Placement, compressorRate, ratio float64) Config {
	return Config{
		Placement: placement,
		Stages:    []Stage{SerDes("serialize", 1.1), Compressor(compressorRate, ratio)},
	}
}
