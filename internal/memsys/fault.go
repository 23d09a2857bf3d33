package memsys

import (
	"errors"
	"fmt"

	"cdpu/internal/obs"
)

// metricFaultInjections counts injector-scheduled events that actually
// faulted (latency spike, stalled MSHRs, or an error response) — the
// observability layer's view of how much adversity a run injected.
var metricFaultInjections = obs.Default().Counter("memsys.fault_injections")

// ErrDeviceFault is the sentinel wrapped into every injected device error:
// the memory system returned an error response (bus error, poisoned line,
// timed-out PCIe completion) for one of the CDPU's requests.
var ErrDeviceFault = errors.New("memsys: device fault")

// Fault describes one injected device-level event. The zero value means the
// event completes normally.
type Fault struct {
	// ExtraCycles is a latency spike added on top of the modeled cycles of
	// this access or stream (e.g. a DRAM refresh collision or link retrain).
	ExtraCycles float64
	// StalledMSHRs is the number of outstanding-request slots held by stalled
	// requests for the duration of a streaming transfer, shrinking the
	// latency-bandwidth window.
	StalledMSHRs int
	// Error marks the event as an error response: the timing result is still
	// produced, but the System records a sticky ErrDeviceFault that the CDPU
	// model surfaces as a DeviceError.
	Error bool
}

// FaultInjector decides, per memory event, whether a fault occurs. The event
// index counts dependent accesses and streaming transfers issued since the
// last ResetFaults, so a pure function of its arguments yields a reproducible
// fault schedule regardless of scheduling.
type FaultInjector interface {
	OnAccess(p Placement, c Class, event int) Fault
}

// SetFaultInjector installs (or, with nil, removes) a fault injector and
// resets the fault state. With an injector installed the System is no longer
// safe for concurrent use.
func (s *System) SetFaultInjector(fi FaultInjector) {
	s.injector = fi
	s.events = 0
	s.faultErr = nil
}

// ResetFaults zeroes the event counter and clears any recorded fault error,
// making the next run see the injector's schedule from event 0. Without an
// injector it is a no-op (and mutates nothing, preserving concurrency
// safety for injector-free Systems).
func (s *System) ResetFaults() {
	if s.injector == nil {
		return
	}
	s.events = 0
	s.faultErr = nil
}

// FaultErr returns the first injected error response since the last
// ResetFaults, wrapped around ErrDeviceFault, or nil.
func (s *System) FaultErr() error { return s.faultErr }

// FaultCycles consults the injector for one explicit memory event (e.g. the
// invocation doorbell) and returns its latency spike. Without an injector it
// returns 0 and mutates nothing.
func (s *System) FaultCycles(p Placement, c Class) float64 {
	return s.faultAt(p, c).ExtraCycles
}

// StreamBandwidthFaulted consults the injector for one memory event (the
// call's bulk stream) and returns StreamBandwidth degraded by any MSHR
// slots the injected fault holds stalled. Without an injector it is exactly
// StreamBandwidth and mutates nothing.
func (s *System) StreamBandwidthFaulted(p Placement, c Class) float64 {
	if f := s.faultAt(p, c); f.StalledMSHRs > 0 {
		return s.streamBandwidthStalled(p, c, f.StalledMSHRs)
	}
	return s.StreamBandwidth(p, c)
}

// faultAt consults the injector for the next memory event. Without an
// injector it is a no-op returning the zero Fault (and mutates nothing, so
// injector-free Systems stay concurrency-safe).
func (s *System) faultAt(p Placement, c Class) Fault {
	if s.injector == nil {
		return Fault{}
	}
	ev := s.events
	s.events++
	f := s.injector.OnAccess(p, c, ev)
	if f != (Fault{}) {
		metricFaultInjections.Inc()
	}
	if f.Error && s.faultErr == nil {
		s.faultErr = fmt.Errorf("%w: error response at event %d (%s)", ErrDeviceFault, ev, p)
	}
	return f
}

// streamBandwidthStalled recomputes StreamBandwidth with `stalled` MSHR slots
// held by stuck requests. At least one slot always survives, so a stall
// degrades a stream rather than dividing by zero.
func (s *System) streamBandwidthStalled(p Placement, c Class, stalled int) float64 {
	width := float64(beatBytes)
	outstanding := mshrs
	if s.linkCycles(p, c) > 0 && (p == PCIeLocalCache || p == PCIeNoCache) {
		outstanding = min(outstanding, pcieTags)
	}
	outstanding -= stalled
	if outstanding < 1 {
		outstanding = 1
	}
	window := float64(outstanding*beatBytes) / s.RTT(p, c)
	if window < width {
		return window
	}
	return width
}
