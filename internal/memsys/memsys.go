// Package memsys models the memory system seen by a CDPU in each of the
// paper's four placements (§5.8.1): near-core on the RoCC/NoC path, on a
// chiplet (25 ns link), or across PCIe+DDIO (200 ns) with or without a
// card-local cache. It provides the two timing primitives the CDPU model
// composes: pipelined streaming transfers (memloader/memwriter traffic) and
// serial dependent accesses (off-chip history fallback lookups).
//
// Streaming bandwidth is limited both by the 256-bit NoC width and by the
// MSHR-limited outstanding-request window: bandwidth = min(beatBytes,
// mshrs*beatBytes/RTT) bytes per cycle (pcieTags replaces mshrs across PCIe).
// This is the mechanism behind the paper's placement results — a PCIe round
// trip of 400 cycles with 16 outstanding 32-byte beats caps streaming at
// 1.28 B/cycle, while the same engine near-core streams at NoC width.
package memsys

import "fmt"

// Placement locates the CDPU relative to the host memory hierarchy
// (compile-time parameter 1 in §5.8.1).
type Placement int

const (
	// RoCC is near-core integration: commands arrive via the RoCC interface
	// and memory traffic rides the TileLink system bus with no added latency.
	RoCC Placement = iota
	// Chiplet adds a 25 ns die-to-die link on every memory request.
	Chiplet
	// PCIeLocalCache is a PCIe card with on-board SRAM/DRAM: raw input and
	// final output cross PCIe (200 ns), intermediate traffic stays local.
	PCIeLocalCache
	// PCIeNoCache is a PCIe card without local storage: all traffic crosses
	// PCIe.
	PCIeNoCache
)

// Placements lists all placements in the paper's plotting order.
var Placements = []Placement{RoCC, Chiplet, PCIeLocalCache, PCIeNoCache}

func (p Placement) String() string {
	switch p {
	case RoCC:
		return "RoCC"
	case Chiplet:
		return "Chiplet"
	case PCIeLocalCache:
		return "PCIeLocalCache"
	case PCIeNoCache:
		return "PCIeNoCache"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// LinkLatencyNs returns the injected one-way latency for the placement
// (§5.8.1: 0 ns near-core, 25 ns chiplet, 200 ns PCIe).
func (p Placement) LinkLatencyNs() float64 {
	switch p {
	case Chiplet:
		return 25
	case PCIeLocalCache, PCIeNoCache:
		return 200
	default:
		return 0
	}
}

// Class distinguishes raw input/output traffic from intermediate traffic
// (history fallback reads, table spills). PCIeLocalCache serves intermediate
// traffic from card-local storage without the PCIe hop.
type Class int

const (
	ClassRaw Class = iota
	ClassIntermediate
)

// The paper's SoC (§5.8): one fixed host, a 2 GHz clock, 256-bit TileLink
// and a shared L2. The CDPU's generator parameters vary; these do not.
const (
	// DeviceGHz is the CDPU and NoC clock: the one rate at which the device
	// model converts link nanoseconds to cycles and the layers above it
	// (fleet replay, traffic, experiments) convert device cycles to
	// wall-clock time.
	DeviceGHz = 2.0
	// beatBytes is the NoC width per cycle (256-bit TileLink).
	beatBytes = 32
	// l2Latency is load-to-use cycles from the shared L2.
	l2Latency = 24
	// dramLatency is cycles for cold/streaming misses past the LLC.
	dramLatency = 120
	// mshrs is the outstanding request budget of the CDPU port: 32
	// outstanding 32-byte requests cover the near-core latency-bandwidth
	// product (24 cycles x 32 B/cycle), so RoCC streaming runs at NoC width
	// while long-latency placements become window-limited.
	mshrs = 32
	// pcieTags caps requests in flight across a PCIe link (non-posted
	// credit budget), independently of the on-die MSHR budget. The paper's
	// PCIe placements are bandwidth-starved precisely because a 200 ns
	// round trip with a limited tag budget bounds streaming well below NoC
	// width (§6.2).
	pcieTags = 16
	// l2Capacity is the shared L2's size in bytes: history fallbacks whose
	// reach exceeds it are served from DRAM instead (§3.6: the near-core
	// accelerator "falls back to accessing the history from the L2 cache or
	// main memory").
	l2Capacity = 1 << 20
)

// System computes access timings for one placement. Its zero value is ready
// to use.
//
// A System with no fault injector installed is stateless and safe for
// concurrent use; installing an injector (SetFaultInjector) adds per-call
// event-counter state and restricts the System to one goroutine.
type System struct {
	injector FaultInjector
	events   int   // memory events observed since the last ResetFaults
	faultErr error // first injected error response, sticky until ResetFaults
}

// linkCycles converts a placement's injected latency to cycles, honoring the
// class rules (PCIeLocalCache exempts intermediate traffic).
func (s *System) linkCycles(p Placement, c Class) float64 {
	if p == PCIeLocalCache && c == ClassIntermediate {
		return 0
	}
	return p.LinkLatencyNs() * DeviceGHz
}

// RTT returns the round-trip cycles of a single memory request.
func (s *System) RTT(p Placement, c Class) float64 {
	return float64(l2Latency) + s.linkCycles(p, c)
}

// StreamBandwidth returns the sustainable streaming rate in bytes/cycle:
// NoC width, unless the latency-bandwidth product runs out of outstanding
// requests (MSHRs on-die, the smaller PCIe tag budget across the link).
func (s *System) StreamBandwidth(p Placement, c Class) float64 {
	width := float64(beatBytes)
	outstanding := mshrs
	if s.linkCycles(p, c) > 0 && (p == PCIeLocalCache || p == PCIeNoCache) {
		outstanding = min(outstanding, pcieTags)
	}
	window := float64(outstanding*beatBytes) / s.RTT(p, c)
	if window < width {
		return window
	}
	return width
}

// AccessCyclesAt returns the cycles of one dependent access whose reach is
// `distance` bytes back: within the L2's capacity it costs an L2 round trip,
// beyond it a DRAM one (plus the placement link, per the class rules).
func (s *System) AccessCyclesAt(p Placement, c Class, distance int) float64 {
	base := float64(l2Latency)
	if distance > l2Capacity {
		base = float64(dramLatency)
	}
	return base + s.linkCycles(p, c) + s.faultAt(p, c).ExtraCycles
}
