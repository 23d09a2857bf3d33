package fault

import "cdpu/internal/memsys"

// Plan is a deterministic device-fault schedule implementing
// memsys.FaultInjector. Every field is "0 = disabled"; a non-zero Every
// triggers on events where (event+1) % Every == 0, so Every=1 faults every
// event (including the first). The schedule is a pure function of the event
// index alone, whatever the event's placement and traffic class — no internal
// state — which makes fault runs reproducible at any scheduler worker count,
// and lets one Plan value be shared read-only.
type Plan struct {
	// ErrorEvery returns an error response on every Nth memory event; the
	// memory system records it and the CDPU call aborts with a DeviceError.
	ErrorEvery int
	// SpikeEvery adds SpikeCycles of latency to every Nth memory event,
	// modeling DRAM refresh collisions, link retrains, or PCIe replays.
	SpikeEvery  int
	SpikeCycles float64
	// StallEvery holds StallMSHRs outstanding-request slots hostage on every
	// Nth streaming transfer, shrinking the latency-bandwidth window.
	StallEvery int
	StallMSHRs int
}

// OnAccess implements memsys.FaultInjector.
func (p Plan) OnAccess(_ memsys.Placement, _ memsys.Class, event int) memsys.Fault {
	var f memsys.Fault
	if p.ErrorEvery > 0 && (event+1)%p.ErrorEvery == 0 {
		f.Error = true
	}
	if p.SpikeEvery > 0 && (event+1)%p.SpikeEvery == 0 {
		f.ExtraCycles = p.SpikeCycles
	}
	if p.StallEvery > 0 && (event+1)%p.StallEvery == 0 {
		f.StalledMSHRs = p.StallMSHRs
	}
	return f
}
