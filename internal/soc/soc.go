// Package soc models the host-side integration of a CDPU: the RoCC command
// interface of the paper's RISC-V SoC (Figure 8) and its placement-dependent
// invocation cost. A near-core accelerator receives custom instructions
// dispatched from the BOOM core's instruction stream "within a few cycles"
// (§5); a device across a chiplet link or PCIe pays the link on the doorbell
// write and on the completion signal.
package soc

import "cdpu/internal/memsys"

// Command-path constants.
const (
	// RoCCDispatchCycles covers issuing the RoCC custom instructions that
	// configure and launch one (de)compression call (source pointer,
	// destination pointer, lengths, go).
	RoCCDispatchCycles = 12
	// SetupCycles covers per-call accelerator-side setup: clearing state
	// machines, TLB lookups for the first page, response marshalling.
	SetupCycles = 40
	// PipelineResetBaseCycles covers quarantining one sick pipeline:
	// draining its state machines, re-zeroing the history SRAM and entropy
	// tables, and re-running the power-on configuration sequence. Dominated
	// by the SRAM wipe (a 64 KiB history at 16 B/cycle is 4096 cycles).
	PipelineResetBaseCycles = 4096
)

// Interface computes invocation costs against a memory system.
type Interface struct {
	sys *memsys.System
}

// New returns an Interface over sys.
func New(sys *memsys.System) *Interface {
	return &Interface{sys: sys}
}

// InvocationCycles returns the fixed cycles consumed per accelerator call
// before any payload moves: command dispatch, accelerator setup, and — for
// off-die placements — one link round trip for the doorbell and one for the
// completion. This fixed cost is what amortizes poorly over the fleet's
// small calls (§3.5.1).
func (i *Interface) InvocationCycles(p memsys.Placement) float64 {
	link := p.LinkLatencyNs() * memsys.DeviceGHz
	return RoCCDispatchCycles + SetupCycles + 2*link + i.doorbellFault(p)
}

// doorbellFault charges any injected fault on the doorbell/completion round
// trip: the invocation is a memory event like any other, so a faulted link
// can delay or error a call before a single payload byte moves. Raw class —
// the doorbell always crosses the placement link.
func (i *Interface) doorbellFault(p memsys.Placement) float64 {
	return i.sys.FaultCycles(p, memsys.ClassRaw)
}

// PipelineResetCycles returns the cost of quarantining and reinitializing
// one pipeline at the given placement: the on-die drain-and-wipe plus four
// configuration round trips over the placement link (quiesce, status read,
// reconfigure, re-arm). Near-core resets are SRAM-wipe-bound; across PCIe
// the management round trips add ~3200 cycles more. The replay charges it
// for every pipeline quarantine and, per pipeline, for every warm restart.
func (i *Interface) PipelineResetCycles(p memsys.Placement) float64 {
	link := p.LinkLatencyNs() * memsys.DeviceGHz
	return PipelineResetBaseCycles + 4*(2*link+RoCCDispatchCycles)
}
