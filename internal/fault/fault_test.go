package fault

import (
	"bytes"
	"testing"

	"cdpu/internal/memsys"
)

func TestMutateDeterministic(t *testing.T) {
	payload := bytes.Repeat([]byte("determinism "), 32)
	for _, kind := range Kinds {
		a := Mutate(42, kind, payload)
		b := Mutate(42, kind, payload)
		if !bytes.Equal(a, b) {
			t.Errorf("%v: same seed produced different mutations", kind)
		}
		c := Mutate(43, kind, payload)
		if bytes.Equal(a, c) {
			t.Errorf("%v: different seeds produced identical mutations", kind)
		}
	}
}

func TestMutateLeavesInputIntact(t *testing.T) {
	payload := []byte("do not touch me")
	orig := append([]byte(nil), payload...)
	for _, kind := range Kinds {
		Mutate(7, kind, payload)
		if !bytes.Equal(payload, orig) {
			t.Fatalf("%v mutated the input slice", kind)
		}
	}
}

func TestMutateShapes(t *testing.T) {
	payload := bytes.Repeat([]byte{0x00}, 64)
	if got := Mutate(1, Truncate, payload); len(got) >= len(payload) {
		t.Errorf("Truncate did not shorten: %d >= %d", len(got), len(payload))
	}
	if got := Mutate(1, GarbageTail, payload); len(got) <= len(payload) {
		t.Errorf("GarbageTail did not extend: %d <= %d", len(got), len(payload))
	}
	if got := Mutate(1, BitFlip, payload); bytes.Equal(got, payload) {
		t.Error("BitFlip left the payload unchanged")
	}
	got := Mutate(1, LengthField, payload)
	if bytes.Equal(got[:8], payload[:8]) {
		t.Error("LengthField left the header region unchanged")
	}
	if !bytes.Equal(got[8:], payload[8:]) {
		t.Error("LengthField touched bytes outside the header region")
	}
	for _, kind := range Kinds {
		if kind == GarbageTail {
			continue
		}
		if got := Mutate(1, kind, nil); len(got) != 0 {
			t.Errorf("%v on empty input produced %d bytes", kind, len(got))
		}
	}
}

func TestPlanSchedule(t *testing.T) {
	p := Plan{ErrorEvery: 3, SpikeEvery: 2, SpikeCycles: 500, StallEvery: 4, StallMSHRs: 8}
	for ev := 0; ev < 12; ev++ {
		f := p.OnAccess(memsys.RoCC, memsys.ClassRaw, ev)
		if got, want := f.Error, (ev+1)%3 == 0; got != want {
			t.Errorf("event %d: Error = %v, want %v", ev, got, want)
		}
		if got, want := f.ExtraCycles > 0, (ev+1)%2 == 0; got != want {
			t.Errorf("event %d: spike = %v, want %v", ev, got, want)
		}
		if got, want := f.StalledMSHRs > 0, (ev+1)%4 == 0; got != want {
			t.Errorf("event %d: stall = %v, want %v", ev, got, want)
		}
	}
	if f := (Plan{}).OnAccess(memsys.PCIeNoCache, memsys.ClassIntermediate, 0); f != (memsys.Fault{}) {
		t.Errorf("zero Plan injected %+v", f)
	}
	// The schedule is keyed by the event index alone: any placement, any class.
	p = Plan{ErrorEvery: 1}
	for _, pl := range memsys.Placements {
		for _, c := range []memsys.Class{memsys.ClassRaw, memsys.ClassIntermediate} {
			if !p.OnAccess(pl, c, 0).Error {
				t.Errorf("plan skipped (%v, %v)", pl, c)
			}
		}
	}
}

func TestPlanDrivesSystemFaultErr(t *testing.T) {
	sys := &memsys.System{}
	sys.SetFaultInjector(Plan{ErrorEvery: 2})
	sys.FaultCycles(memsys.RoCC, memsys.ClassRaw) // event 0: healthy
	if sys.FaultErr() != nil {
		t.Fatalf("unexpected fault after event 0: %v", sys.FaultErr())
	}
	sys.FaultCycles(memsys.RoCC, memsys.ClassRaw) // event 1: error
	if sys.FaultErr() == nil {
		t.Fatal("no fault recorded after event 1")
	}
	sys.ResetFaults()
	if sys.FaultErr() != nil {
		t.Fatal("ResetFaults did not clear the fault")
	}
}
