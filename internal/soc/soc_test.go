package soc

import (
	"testing"

	"cdpu/internal/memsys"
)

func TestInvocationCosts(t *testing.T) {
	i := New(&memsys.System{})
	rocc := i.InvocationCycles(memsys.RoCC)
	chiplet := i.InvocationCycles(memsys.Chiplet)
	pcie := i.InvocationCycles(memsys.PCIeNoCache)
	if rocc != RoCCDispatchCycles+SetupCycles {
		t.Errorf("RoCC invocation = %f", rocc)
	}
	if !(rocc < chiplet && chiplet < pcie) {
		t.Errorf("invocation ordering violated: %f %f %f", rocc, chiplet, pcie)
	}
	// PCIe doorbell+completion: two 200ns round trips at 2 GHz = 800 cycles.
	if got := pcie - rocc; got != 800 {
		t.Errorf("PCIe link invocation overhead = %f cycles, want 800", got)
	}
	// The two PCIe variants share the command path.
	if pcie != i.InvocationCycles(memsys.PCIeLocalCache) {
		t.Error("PCIe variants should share invocation cost")
	}
}

func TestInvocationCyclesExactPerPlacement(t *testing.T) {
	// Direct pin of the invocation model at memsys.DeviceGHz (2 GHz):
	// dispatch 12 + setup 40 + two link crossings (doorbell + completion).
	i := New(&memsys.System{})
	cases := []struct {
		p    memsys.Placement
		want float64
	}{
		{memsys.RoCC, 52},            // no link
		{memsys.Chiplet, 152},        // 2 x 25 ns x 2 GHz = 100
		{memsys.PCIeLocalCache, 852}, // 2 x 200 ns x 2 GHz = 800
		{memsys.PCIeNoCache, 852},
	}
	for _, c := range cases {
		if got := i.InvocationCycles(c.p); got != c.want {
			t.Errorf("InvocationCycles(%s) = %v, want %v", c.p, got, c.want)
		}
	}
}
