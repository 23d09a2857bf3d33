package core

import (
	"errors"
	"fmt"

	"cdpu/internal/memsys"
)

// ErrWatchdog is the sentinel wrapped into watchdog aborts: the call exceeded
// WatchdogFactor times its expected cycle bound.
var ErrWatchdog = errors.New("core: watchdog cycle budget exceeded")

// Watchdog budget model. The expected bound is deliberately generous — a
// healthy call on any placement runs well under 16 cycles/byte (remote
// placements are link-bound near 1 cycle/byte; the worst legitimate unit-bound
// paths, far-history fallbacks and narrow-speculation Huffman expansion, stay
// under ~8) — so only a hung device, an injected latency fault, or a stream
// engineered to blow up the cycle model trips it.
const (
	// DefaultWatchdogFactor multiplies the expected cycle bound to form the
	// abort threshold when Config.WatchdogFactor is zero.
	DefaultWatchdogFactor = 8
	watchdogBaseCycles    = 10000
	watchdogPerByte       = 16
)

// DeviceError reports a call the device aborted rather than completed: a
// corrupt input stream detected mid-decode, an injected memory fault, or a
// watchdog expiry. Cycles is the modeled latency at which software observes
// the abort — the decode-error detection latency the fault-sweep experiment
// tables per placement.
type DeviceError struct {
	Reason string  // "corrupt-input", "memory-fault" or "watchdog"
	Unit   string  // instance name (Config.Name())
	Cycles float64 // modeled cycles from invocation to abort visibility
	Err    error   // underlying cause
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("core: %s aborted (%s) after %.0f cycles: %v", e.Unit, e.Reason, e.Cycles, e.Err)
}

// Unwrap exposes the underlying cause, so errors.Is sees through to codec
// sentinels, memsys.ErrDeviceFault or ErrWatchdog.
func (e *DeviceError) Unwrap() error { return e.Err }

// WatchdogBudget returns the abort threshold in cycles for a call moving the
// given payload bytes, or 0 when the watchdog is disabled (negative factor).
// Exported so higher layers (the cluster failover dispatcher) can charge a
// hung replica for exactly the cycles the watchdog would let it burn before
// declaring the call dead.
func (c Config) WatchdogBudget(inBytes, outBytes int) float64 {
	if c.WatchdogFactor < 0 {
		return 0
	}
	f := c.WatchdogFactor
	if f == 0 {
		f = DefaultWatchdogFactor
	}
	return f * (watchdogBaseCycles + watchdogPerByte*float64(inBytes+outBytes))
}

// checkDeviceHealth inspects a completed call for injected memory faults and
// watchdog expiry, returning the DeviceError to surface, or nil.
func checkDeviceHealth(cfg Config, sys *memsys.System, res *Result) error {
	if ferr := sys.FaultErr(); ferr != nil {
		metricMemFaults.Inc()
		return &DeviceError{Reason: "memory-fault", Unit: cfg.Name(), Cycles: res.Cycles, Err: ferr}
	}
	if budget := cfg.WatchdogBudget(res.InputBytes, res.OutputBytes); budget > 0 && res.Cycles > budget {
		metricWatchdogTrips.Inc()
		return &DeviceError{
			Reason: "watchdog", Unit: cfg.Name(), Cycles: budget,
			Err: fmt.Errorf("%w: %.0f cycles over budget %.0f", ErrWatchdog, res.Cycles, budget),
		}
	}
	return nil
}
