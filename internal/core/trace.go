package core

import (
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
	"cdpu/internal/soc"
	"cdpu/internal/zstdlite"
)

// Trace is the functional half of one accelerator call: the bytes the call
// produces and the command stream its datapath executes. It depends on the
// payload and on the fields of Config.FunctionalKey only, so one trace can be
// timed (Compressor.Time, Decompressor.Time) under any number of
// configurations that share that key. Timing only reads a trace: traces may
// be shared between goroutines.
type Trace struct {
	// InputBytes and OutputBytes are the call's payload sizes.
	InputBytes, OutputBytes int
	// Output is the produced payload; a Result timed from the trace aliases
	// it. It is nil for a size-only trace (Compressor.Trace), the caller's
	// own plaintext for a planned decompression (Decompressor.tracePlan), and
	// an owner that has checked the payload may drop it before sharing the
	// trace.
	Output []byte

	key string     // FunctionalKey of the instance that took the trace
	lz  lz77.Stats // compression: dictionary-stage statistics
	// seqs is the Snappy decompressor's element stream, one Seq per literal or
	// copy element: parsed out of the frame, or as the frame's encoder
	// recorded it (snappy.Plan), whose scratch it then aliases.
	seqs []lz77.Seq
	// blocks is the ZStd frame, either direction, as zstdlite describes it:
	// what each block charges for. A trace that outlives its call keeps no
	// Literals, and a compression trace no Seqs either: they are encoder
	// scratch, and the encode charges read only their count.
	blocks []zstdlite.BlockInfo
	lits   []byte // literal scratch of a Snappy frame parse
	// fold summarizes a decompression trace's command stream, taken by the
	// walk that verified it (Decompressor.fold).
	fold seqFold
}

// seqFold is a decompression trace's command stream — seqs, or every ZStd
// block's Seqs in block order — reduced to what Decompressor.Time charges for:
// the sums that land in idLZ77, and the copies whose charge is a history
// fallback. docs/MODEL.md has the argument that charging from the fold equals
// the per-command walk bit for bit.
//
// Which copies are near depends on who folds. A trace that outlives its call
// (Decompressor.Trace) may be timed under any Config, so near is offset ≤
// MinHistorySRAM, a history SRAM hit under every valid Config, and far holds
// every other copy for the timing instance to sort. A trace timed inside its
// call (Decompress, DecompressPlanned) is timed only by the instance that
// took its fold, so near is offset ≤ that instance's HistorySRAM and far holds
// exactly its hist-fallback copies. Time re-checks each far copy against its
// own HistorySRAM either way.
type seqFold struct {
	commands  int // elements parsed
	litBytes  int // bytes moved by literal runs
	nearBytes int // bytes of copies at most the near threshold back
	// far is every other copy, in stream order: exactly sized on a trace that
	// outlives its call, the decompressor's reused backing on any other.
	far []farCopy
}

// farCopy is one copy command. A decoded frame's offsets and lengths are
// bounded by the codecs' MaxDecodedLen (1 GiB), so 32 bits hold either.
type farCopy struct{ offset, length uint32 }

// seal records what a functional pass over inBytes of input produced.
func (tr *Trace) seal(key string, inBytes int, out []byte) {
	tr.key = key
	tr.InputBytes = inBytes
	tr.OutputBytes = len(out)
	tr.Output = out
}

// unit is what a Compressor and a Decompressor share: the instance's place in
// the system, its call modes, and the one path every timed call takes (begin,
// the direction's charges, end).
type unit struct {
	cfg   Config
	fkey  string // cfg.FunctionalKey()
	sys   *memsys.System
	iface *soc.Interface

	tracing bool // emit Spans (SetTracing)

	// Result-reuse mode (SetResultReuse): the instance owns one Result and
	// one output buffer (scratch.Output), recycled across calls.
	reuse bool
	res   Result
	// scratch is the trace Compress/Decompress take and time within one
	// call; its command-stream backing is reused across calls in either mode.
	scratch Trace
}

func newUnit(cfg Config) (unit, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return unit{}, err
	}
	sys := &memsys.System{}
	return unit{cfg: cfg, fkey: cfg.FunctionalKey(), sys: sys, iface: soc.New(sys)}, nil
}

// PipelineResetCycles returns the placement-aware cost of quarantining and
// reinitializing one pipeline; see soc.Interface.PipelineResetCycles.
func (u *unit) PipelineResetCycles() float64 {
	return u.iface.PipelineResetCycles(u.cfg.Placement)
}

// SetResultReuse opts the instance into returning one owned Result whose
// Output aliases an owned buffer, both recycled across calls: the returned
// Result (and its Output) is valid only until the next call on this
// instance. Replay loops that consume each result before issuing the next
// call use this to run the steady-state hot path without allocating.
func (u *unit) SetResultReuse(on bool) {
	u.reuse = on
	u.scratch.Output = nil // a buffer handed out before the switch stays the caller's
}

// SetTracing enables (or disables) per-block span collection: subsequent
// calls return Results with a populated Spans timeline. Tracing changes no
// modeled cycles.
func (u *unit) SetTracing(on bool) { u.tracing = on }

// SetFaultInjector installs (or removes, with nil) a device-fault injector on
// the instance's memory system. Fault state resets at the start of every
// timed call, so an injector that is a pure function of the event index
// produces an identical fault schedule on every run of the same input.
func (u *unit) SetFaultInjector(fi memsys.FaultInjector) { u.sys.SetFaultInjector(fi) }

// outBuf returns the buffer a call's payload is appended to: the owned one in
// reuse mode, nil (a fresh allocation the caller keeps) otherwise.
func (u *unit) outBuf() []byte {
	if u.reuse {
		return u.scratch.Output[:0]
	}
	return nil
}

// begin opens a timed call over tr: fault state reset, and the Result (the
// owned, recycled one in reuse mode) carrying the trace's payload and sizes.
func (u *unit) begin(tr *Trace) (*Result, error) {
	if tr.key != u.fkey {
		return nil, fmt.Errorf("core: %s cannot time a trace taken under functional key %q (its own is %q)", u.cfg.Name(), tr.key, u.fkey)
	}
	u.sys.ResetFaults()
	var res *Result
	if u.reuse {
		res = resetResult(&u.res, u.tracing)
	} else {
		res = &Result{traced: u.tracing}
	}
	res.Output = tr.Output
	res.InputBytes = tr.InputBytes
	res.OutputBytes = tr.OutputBytes
	res.UncompressedBytes = tr.InputBytes
	if u.cfg.Op == comp.Decompress {
		res.UncompressedBytes = tr.OutputBytes
	}
	return res, nil
}

// end closes a timed call: it adds the call-granularity costs shared by all
// algorithms and both directions — invocation, first-access latency, and the
// raw-traffic link-occupancy bound that throttles remote placements — seals
// Cycles as the exact sum of the per-block attribution (Result.finish), and
// surfaces an injected memory fault or a watchdog expiry as a DeviceError.
// Compression has no intermediate traffic: PCIeLocalCache and PCIeNoCache
// behave identically (§6.3).
func (u *unit) end(res *Result) (*Result, error) {
	inv := u.iface.InvocationCycles(u.cfg.Placement)
	first := u.sys.RTT(u.cfg.Placement, memsys.ClassRaw)
	linkBytes := res.InputBytes + res.OutputBytes
	stream := float64(linkBytes) / u.sys.StreamBandwidthFaulted(u.cfg.Placement, memsys.ClassRaw)
	res.finish(inv, first, stream, linkBytes)
	recordCall(u.cfg.Placement, res)
	if derr := checkDeviceHealth(u.cfg, u.sys, res); derr != nil {
		return nil, derr
	}
	return res, nil
}
