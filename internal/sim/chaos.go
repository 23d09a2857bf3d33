package sim

import (
	"bytes"
	"errors"
	"fmt"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
)

// Synthetic span blocks for the recovery timeline: failed dispatches, the
// backoff waits between them, result-verification failures, and the software
// fallback tail. They ride the same per-call span list as the device's own
// blocks, so a traced chaos replay shows recovery inline with execution.
const (
	blockRetryAbort = "retry-abort"
	blockBackoff    = "backoff"
	blockVerifyFail = "verify-fail"
	blockFallback   = "sw-fallback"
)

// execOut carries one call's phase-B outcome into the serial queueing phase:
// the device-side service cycles (all dispatches plus backoff waits), the
// software-fallback cycles appended after the device gives up, how many
// dispatches faulted (feeds pipeline quarantine), how many re-dispatches the
// call consumed, and whether it was ultimately served degraded. Every call
// carries its watchdog budget (what a hung replica burns before failing the
// dispatch) and, under a Lifecycle, a call landing in a brownout window
// carries its degraded-bandwidth service cycles.
type execOut struct {
	service  float64
	post     float64
	budget   float64
	brown    float64
	faults   int
	retries  int
	degraded bool
	spans    []obs.Span
}

// appendSpan records a synthetic recovery span when tracing is on; zero-length
// spans are dropped so no-jitter zero backoffs don't clutter the timeline.
func appendSpan(spans []obs.Span, traced bool, block string, start, dur float64) []obs.Span {
	if !traced || dur <= 0 {
		return spans
	}
	return append(spans, obs.Span{Block: block, Start: start, Dur: dur})
}

// stormPlan maps a transient storm kind onto the fault injector that realizes
// it on the device's memory system for exactly one dispatch.
func stormPlan(kind fault.StormKind) fault.Plan {
	if kind == fault.StormMemFault {
		return fault.Plan{ErrorEvery: 1}
	}
	// Watchdog: one enormous latency spike on the first memory event (the
	// doorbell) blows the call past its cycle budget.
	return fault.Plan{SpikeEvery: 1, SpikeCycles: 1e12}
}

// corruptErr wraps a result-verification failure as the same corrupt-input
// DeviceError the decode paths raise, so abort-policy callers see one error
// shape for every corruption.
func corruptErr(s *callSpec, cfg *Config, cycles float64, cause error) error {
	unit := core.Config{Algo: s.rec.Algo, Op: s.rec.Op, Placement: cfg.Placement}.Name()
	return &core.DeviceError{Reason: "corrupt-input", Unit: unit, Cycles: cycles, Err: cause}
}

// chaosBitFlip models payload corruption on the device path. The host's copy
// stays intact, so recovery can still serve the call in software; the device
// either detects the corruption mid-decode (charging the detection latency)
// or completes and fails the end-to-end verification (charging the full
// call). Retrying is pointless — the corrupt buffer reads back identically —
// so a bit flip never consumes retry attempts.
func (sh *shard) chaosBitFlip(s *callSpec, call int, cfg *Config, plain, devInput []byte) (execOut, error) {
	dev := sh.devs[s.dev]
	traced := cfg.Trace != nil
	var out execOut
	if s.rec.Op == comp.Decompress {
		mutated := fault.Mutate(cfg.Storm.MutationSeed(call), fault.BitFlip, devInput)
		res, err := dev.Exec(mutated)
		switch {
		case err == nil && bytes.Equal(res.Output, plain):
			// The flips landed in don't-care bytes: the output still
			// verifies, so the corruption was harmless and nothing recovers.
			return execOut{service: res.Cycles, spans: res.Spans}, nil
		case err == nil:
			// Undetected corruption: the device completes and the host's
			// end-to-end check rejects the output after the full call.
			out.service = res.Cycles
			out.spans = appendSpan(out.spans, traced, blockVerifyFail, 0, res.Cycles)
			err = corruptErr(s, cfg, res.Cycles, errors.New("sim: output failed end-to-end verification"))
		default:
			var derr *core.DeviceError
			if !errors.As(err, &derr) {
				return execOut{}, err
			}
			out.service = derr.Cycles
			out.spans = appendSpan(out.spans, traced, blockRetryAbort, 0, derr.Cycles)
		}
		out.faults = 1
		if !cfg.Resilience.SoftwareFallback {
			return out, err
		}
		return sh.fallback(s, out, cfg, plain, devInput)
	}
	// Compression: the call itself runs on healthy input and the result
	// buffer is corrupted on the device->host return path, so the full
	// call's cycles are spent before verification rejects the output.
	res, err := dev.Exec(devInput)
	if err != nil {
		return execOut{}, err
	}
	out.service = res.Cycles
	out.faults = 1
	out.spans = appendSpan(out.spans, traced, blockVerifyFail, 0, res.Cycles)
	if !cfg.Resilience.SoftwareFallback {
		return out, corruptErr(s, cfg, res.Cycles, errors.New("sim: compressed output failed verification"))
	}
	return sh.fallback(s, out, cfg, plain, devInput)
}

// chaosTransient retries a device fault (memory fault or watchdog trip) with
// capped, jittered backoff. The storm's repeat count says how many
// consecutive dispatches stay faulted; the policy's MaxAttempts says how many
// the call may consume. Failed dispatches charge their abort-detection
// latency, backoff waits charge into the same modeled service time (the
// dispatch slot is held), and exhaustion falls back to software or aborts.
func (sh *shard) chaosTransient(s *callSpec, call int, cfg *Config, plain, devInput []byte, kind fault.StormKind, repeats int) (execOut, error) {
	dev := sh.devs[s.dev]
	pol := cfg.Resilience
	traced := cfg.Trace != nil
	var out execOut
	maxAttempts := max(1, pol.MaxAttempts)
	seed := resil.BackoffSeed(cfg.Seed, call)
	cursor := 0.0
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		faulted := attempt < repeats
		if faulted {
			dev.SetFaultInjector(stormPlan(kind))
		}
		res, err := dev.Exec(devInput)
		if faulted {
			dev.SetFaultInjector(nil)
		}
		if attempt > 0 {
			out.retries++
		}
		if err == nil {
			if faulted {
				// An injected fault the device absorbed silently means the
				// storm plan is miswired — a model bug, not a recovery case.
				return execOut{}, fmt.Errorf("sim: call %d: injected %v fault produced no error", call, kind)
			}
			out.service += res.Cycles
			if traced {
				for _, sp := range res.Spans {
					sp.Start += cursor
					out.spans = append(out.spans, sp)
				}
			}
			return out, nil
		}
		var derr *core.DeviceError
		if !errors.As(err, &derr) {
			return execOut{}, err
		}
		lastErr = err
		out.faults++
		out.service += derr.Cycles
		out.spans = appendSpan(out.spans, traced, blockRetryAbort, cursor, derr.Cycles)
		cursor += derr.Cycles
		if attempt+1 < maxAttempts {
			wait := pol.Backoff(seed, attempt+1)
			out.service += wait
			out.spans = appendSpan(out.spans, traced, blockBackoff, cursor, wait)
			cursor += wait
		}
	}
	if !pol.SoftwareFallback {
		return out, lastErr
	}
	return sh.fallback(s, out, cfg, plain, devInput)
}

// fallback serves the call on the modeled CPU codec path after device
// recovery is exhausted: the xeon cost tables give the software service time
// (converted to device-clock cycles and charged after the device time already
// spent), and the result is verified functionally by round trip so no corrupt
// bytes can ever surface from a degraded call.
func (sh *shard) fallback(s *callSpec, out execOut, cfg *Config, plain, devInput []byte) (execOut, error) {
	cycles := softwareCycles(s)
	if s.rec.Op == comp.Decompress {
		got, err := comp.DecompressCall(s.rec.Algo, devInput)
		if err != nil || !bytes.Equal(got, plain) {
			return execOut{}, fmt.Errorf("sim: software fallback verification failed: %v", err)
		}
	} else {
		enc, err := sh.coder.AppendCompress(sh.fb[:0], s.rec.Algo, s.rec.Level, min(s.rec.WindowLog, 17), plain)
		if err != nil {
			return execOut{}, fmt.Errorf("sim: software fallback compress: %w", err)
		}
		sh.fb = enc
		got, err := comp.DecompressCall(s.rec.Algo, enc)
		if err != nil || !bytes.Equal(got, plain) {
			return execOut{}, fmt.Errorf("sim: software fallback verification failed: %v", err)
		}
	}
	out.post = cycles
	out.degraded = true
	out.spans = appendSpan(out.spans, cfg.Trace != nil, blockFallback, out.service, cycles)
	return out, nil
}
