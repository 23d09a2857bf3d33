package core

import (
	"errors"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/snappy"
)

func faultTestPayload() []byte {
	src := make([]byte, 8192)
	for i := range src {
		src[i] = byte(i * 131)
	}
	return snappy.Encode(src)
}

func TestCorruptInputReturnsDeviceError(t *testing.T) {
	d, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	enc := faultTestPayload()
	bad := fault.Mutate(1, fault.Truncate, enc)
	_, err = d.Decompress(bad)
	var derr *DeviceError
	if !errors.As(err, &derr) {
		t.Fatalf("error %v is not a DeviceError", err)
	}
	if derr.Reason != "corrupt-input" {
		t.Fatalf("Reason = %q", derr.Reason)
	}
	if derr.Cycles <= 0 {
		t.Fatalf("detection Cycles = %v, want > 0", derr.Cycles)
	}
	if !errors.Is(err, snappy.ErrCorrupt) {
		t.Fatalf("DeviceError does not unwrap to snappy.ErrCorrupt: %v", err)
	}
}

func TestDetectionLatencyGrowsWithLink(t *testing.T) {
	enc := faultTestPayload()
	bad := fault.Mutate(3, fault.BitFlip, enc)
	var prev float64
	for i, p := range []memsys.Placement{memsys.RoCC, memsys.Chiplet, memsys.PCIeNoCache} {
		d, err := NewDecompressor(Config{Algo: comp.Snappy, Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.Decompress(bad)
		var derr *DeviceError
		if !errors.As(err, &derr) {
			// A flipped bit may still decode to a valid stream; the test only
			// cares about the latency ordering when it does error.
			t.Skipf("corruption not detected on %v: %v", p, err)
		}
		if i > 0 && derr.Cycles <= prev {
			t.Fatalf("%v detection %v not above previous %v", p, derr.Cycles, prev)
		}
		prev = derr.Cycles
	}
}

func TestInjectedMemoryFaultAborts(t *testing.T) {
	d, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(fault.Plan{ErrorEvery: 1})
	_, err = d.Decompress(faultTestPayload())
	var derr *DeviceError
	if !errors.As(err, &derr) {
		t.Fatalf("error %v is not a DeviceError", err)
	}
	if derr.Reason != "memory-fault" {
		t.Fatalf("Reason = %q", derr.Reason)
	}
	if !errors.Is(err, memsys.ErrDeviceFault) {
		t.Fatalf("DeviceError does not unwrap to memsys.ErrDeviceFault: %v", err)
	}
	// Removing the injector restores healthy runs on the same instance.
	d.SetFaultInjector(nil)
	if _, err := d.Decompress(faultTestPayload()); err != nil {
		t.Fatalf("healthy run after clearing injector: %v", err)
	}
}

func TestWatchdogTripsOnLatencySpike(t *testing.T) {
	d, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(fault.Plan{SpikeEvery: 1, SpikeCycles: 1e9})
	_, err = d.Decompress(faultTestPayload())
	var derr *DeviceError
	if !errors.As(err, &derr) {
		t.Fatalf("error %v is not a DeviceError", err)
	}
	if derr.Reason != "watchdog" {
		t.Fatalf("Reason = %q", derr.Reason)
	}
	if !errors.Is(err, ErrWatchdog) {
		t.Fatalf("DeviceError does not unwrap to ErrWatchdog: %v", err)
	}
	// The abort surfaces at the budget, not after the full (spiked) run.
	if derr.Cycles >= 1e9 {
		t.Fatalf("watchdog reported %v cycles, want the budget", derr.Cycles)
	}
}

func TestWatchdogDisabled(t *testing.T) {
	d, err := NewDecompressor(Config{Algo: comp.Snappy, WatchdogFactor: -1})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(fault.Plan{SpikeEvery: 1, SpikeCycles: 1e9})
	res, err := d.Decompress(faultTestPayload())
	if err != nil {
		t.Fatalf("disabled watchdog still aborted: %v", err)
	}
	if res.Cycles < 1e9 {
		t.Fatalf("spike not charged: %v cycles", res.Cycles)
	}
}

func TestWatchdogNeverTripsHealthy(t *testing.T) {
	enc := faultTestPayload()
	for _, p := range memsys.Placements {
		d, err := NewDecompressor(Config{Algo: comp.Snappy, Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Decompress(enc); err != nil {
			t.Fatalf("%v: healthy decompress: %v", p, err)
		}
	}
}

func TestFaultRunsDeterministic(t *testing.T) {
	d, err := NewDecompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	d.SetFaultInjector(fault.Plan{SpikeEvery: 1, SpikeCycles: 100})
	enc := faultTestPayload()
	r1, err1 := d.Decompress(enc)
	r2, err2 := d.Decompress(enc)
	if err1 != nil || err2 != nil {
		t.Fatalf("spiked runs errored: %v / %v", err1, err2)
	}
	// The event counter resets per call, so back-to-back runs of the same
	// input see the identical fault schedule and cost identical cycles.
	if r1.Cycles != r2.Cycles {
		t.Fatalf("fault schedule not reproducible: %v != %v cycles", r1.Cycles, r2.Cycles)
	}
}

func TestCompressorMemoryFaultAborts(t *testing.T) {
	c, err := NewCompressor(Config{Algo: comp.Snappy})
	if err != nil {
		t.Fatal(err)
	}
	c.SetFaultInjector(fault.Plan{ErrorEvery: 1})
	_, err = c.Compress(make([]byte, 4096))
	var derr *DeviceError
	if !errors.As(err, &derr) || derr.Reason != "memory-fault" {
		t.Fatalf("error %v is not a memory-fault DeviceError", err)
	}
}

// TestCorruptInputDetectionStartsFromResetFaultState pins that every call,
// rejected ones included, sees the injector's schedule from event 0: the
// detection latency of a corrupt stream does not depend on the calls the
// instance served before it.
func TestCorruptInputDetectionStartsFromResetFaultState(t *testing.T) {
	data := corpus.Generate(corpus.Log, 32<<10, 17)
	enc := snappy.Encode(data)
	bad := append([]byte{}, enc[:len(enc)/2]...)
	plan := fault.Plan{SpikeEvery: 3, SpikeCycles: 900} // a served call is two events: doorbell and stream
	detect := func(warm bool) float64 {
		d := mustDecompressor(t, Config{Algo: comp.Snappy, Placement: memsys.PCIeNoCache})
		d.SetFaultInjector(plan)
		if warm {
			if _, err := d.Decompress(enc); err != nil {
				t.Fatal(err)
			}
		}
		_, err := d.Decompress(bad)
		var derr *DeviceError
		if !errors.As(err, &derr) || derr.Reason != "corrupt-input" {
			t.Fatalf("truncated stream: %v, want a corrupt-input DeviceError", err)
		}
		return derr.Cycles
	}
	if cold, warm := detect(false), detect(true); cold != warm {
		t.Errorf("detection latency %v after a served call, %v on a fresh instance", warm, cold)
	}
}
