package chain

import (
	"testing"

	"cdpu/internal/memsys"
)

func TestRunBasic(t *testing.T) {
	res, err := Run(WritePath(memsys.RoCC, 3.0, 2.0), 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || len(res.PerStage) != 2 {
		t.Fatalf("bad result: %+v", res)
	}
	// serialize at 1.1x then compress 2x: output ~ 55% of input.
	if res.OutputBytes < 30<<10 || res.OutputBytes > 45<<10 {
		t.Errorf("output bytes = %d", res.OutputBytes)
	}
	if res.InterludeTransfer != 0 {
		t.Errorf("near-core chain paid interlude transfer: %f", res.InterludeTransfer)
	}
}

func TestPlacementOrderingForChains(t *testing.T) {
	var prev float64
	for _, p := range []memsys.Placement{memsys.RoCC, memsys.Chiplet, memsys.PCIeNoCache} {
		res, err := Run(WritePath(p, 3.0, 2.0), 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles <= prev {
			t.Fatalf("placement %v chain not slower than previous", p)
		}
		prev = res.Cycles
	}
}

func TestChainingPenaltyCompoundsRemotely(t *testing.T) {
	// §3.5.2: the chained op pays offload overhead multiple times when the
	// accelerators are far away. Compare the chain penalty (chain vs single
	// compression stage) across placements: remote penalty must exceed the
	// near-core penalty by more than the single-stage gap alone explains.
	single := Config{Stages: []Stage{Compressor(3.0, 2.0)}}
	chained := WritePath(memsys.RoCC, 3.0, 2.0)
	const n = 64 << 10

	singleRoCC, _ := Run(withPlacement(single, memsys.RoCC), n)
	chainRoCC, _ := Run(chained, n)
	singlePCIe, _ := Run(withPlacement(single, memsys.PCIeNoCache), n)
	chainPCIe, _ := Run(WritePath(memsys.PCIeNoCache, 3.0, 2.0), n)

	nearPenalty := chainRoCC.Cycles / singleRoCC.Cycles
	remotePenalty := chainPCIe.Cycles / singlePCIe.Cycles
	if remotePenalty <= nearPenalty {
		t.Errorf("remote chaining penalty %.2f not above near-core %.2f", remotePenalty, nearPenalty)
	}
	if chainPCIe.InterludeTransfer <= 0 {
		t.Error("remote chain did not account interlude transfers")
	}
}

func withPlacement(c Config, p memsys.Placement) Config {
	c.Placement = p
	return c
}

func TestReadPathExpands(t *testing.T) {
	// The inverse of WritePath: decompress (an expanding stage), then
	// deserialize.
	readPath := Config{
		Placement: memsys.RoCC,
		Stages:    []Stage{{Name: "decompress", BytesPerCycle: 5, OutScale: 2}, SerDes("deserialize", 1/1.1)},
	}
	res, err := Run(readPath, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBytes <= 32<<10 {
		t.Errorf("read path did not expand: %d", res.OutputBytes)
	}
}

func TestLongerChainsPayMoreInterludeTransfer(t *testing.T) {
	// Each extra remote stage adds another round of intermediate movement:
	// a 3-stage remote chain must carry strictly more interlude transfer
	// than a 2-stage one, while near-core chains never pay it.
	two := WritePath(memsys.PCIeNoCache, 3.0, 2.0)
	three := two
	three.Stages = append([]Stage{SerDes("validate", 1.0)}, two.Stages...)
	r2, err := Run(two, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(three, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if r3.InterludeTransfer <= r2.InterludeTransfer {
		t.Errorf("3-stage interlude transfer %.0f not above 2-stage %.0f",
			r3.InterludeTransfer, r2.InterludeTransfer)
	}
	near3 := three
	near3.Placement = memsys.RoCC
	rn, err := Run(near3, 256<<10)
	if err != nil {
		t.Fatal(err)
	}
	if rn.InterludeTransfer != 0 {
		t.Errorf("near-core chain paid interlude transfer %.0f", rn.InterludeTransfer)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}, 100); err == nil {
		t.Error("no stages accepted")
	}
	if _, err := Run(WritePath(memsys.RoCC, 3, 2), 0); err == nil {
		t.Error("zero bytes accepted")
	}
	bad := Config{Stages: []Stage{{Name: "x", BytesPerCycle: 0, OutScale: 1}}}
	if _, err := Run(bad, 100); err == nil {
		t.Error("zero-rate stage accepted")
	}
}
