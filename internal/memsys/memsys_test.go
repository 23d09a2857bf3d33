package memsys

import (
	"math"
	"testing"
)

func TestPlacementLatencies(t *testing.T) {
	if RoCC.LinkLatencyNs() != 0 || Chiplet.LinkLatencyNs() != 25 ||
		PCIeLocalCache.LinkLatencyNs() != 200 || PCIeNoCache.LinkLatencyNs() != 200 {
		t.Error("placement latencies do not match §5.8.1")
	}
}

func TestRTTOrdering(t *testing.T) {
	s := &System{}
	if !(s.RTT(RoCC, ClassRaw) < s.RTT(Chiplet, ClassRaw)) ||
		!(s.RTT(Chiplet, ClassRaw) < s.RTT(PCIeNoCache, ClassRaw)) {
		t.Error("RTT not ordered RoCC < Chiplet < PCIe")
	}
}

func TestLocalCacheExemptsIntermediateTraffic(t *testing.T) {
	s := &System{}
	// Raw traffic pays PCIe on both PCIe placements.
	if s.RTT(PCIeLocalCache, ClassRaw) != s.RTT(PCIeNoCache, ClassRaw) {
		t.Error("raw RTT differs between PCIe variants")
	}
	// Intermediate traffic is local only with the on-card cache.
	if s.RTT(PCIeLocalCache, ClassIntermediate) != s.RTT(RoCC, ClassIntermediate) {
		t.Error("PCIeLocalCache intermediate RTT should match near-core")
	}
	if s.RTT(PCIeNoCache, ClassIntermediate) <= s.RTT(RoCC, ClassIntermediate) {
		t.Error("PCIeNoCache intermediate RTT should pay the link")
	}
}

func TestStreamBandwidthNoCWidthNearCore(t *testing.T) {
	s := &System{}
	bw := s.StreamBandwidth(RoCC, ClassRaw)
	if bw != beatBytes {
		t.Errorf("near-core bandwidth %f B/cycle, want NoC width", bw)
	}
}

func TestStreamBandwidthTagLimitedOverPCIe(t *testing.T) {
	s := &System{}
	// Across PCIe the smaller tag budget governs, not the on-die MSHRs.
	want := float64(pcieTags*beatBytes) / s.RTT(PCIeNoCache, ClassRaw)
	got := s.StreamBandwidth(PCIeNoCache, ClassRaw)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("PCIe bandwidth %f, want %f", got, want)
	}
	if got >= s.StreamBandwidth(RoCC, ClassRaw) {
		t.Error("PCIe streaming not slower than near-core")
	}
	// PCIeLocalCache intermediate traffic stays on-card: full MSHR budget.
	if s.StreamBandwidth(PCIeLocalCache, ClassIntermediate) != s.StreamBandwidth(RoCC, ClassIntermediate) {
		t.Error("local-cache intermediate bandwidth should match near-core")
	}
}

// streamCycles is what a unit charges to stream n bytes on a healthy system:
// first-access latency plus pipelined transfer.
func streamCycles(s *System, n int, p Placement, c Class) float64 {
	return s.RTT(p, c) + float64(n)/s.StreamBandwidth(p, c)
}

func TestStreamCyclesScaleLinearly(t *testing.T) {
	s := &System{}
	small := streamCycles(s, 1<<10, RoCC, ClassRaw)
	large := streamCycles(s, 1<<20, RoCC, ClassRaw)
	if large <= small {
		t.Error("streaming cycles not increasing")
	}
	perByte := (large - small) / float64(1<<20-1<<10)
	if math.Abs(perByte-1.0/32) > 1e-6 {
		t.Errorf("marginal cost %f cycles/byte, want 1/32", perByte)
	}
}

func TestSmallTransfersDominatedByLatency(t *testing.T) {
	s := &System{}
	// A 1 KiB transfer over PCIe: latency >> transfer time. The ratio to
	// near-core must exceed the pure bandwidth ratio, the paper's mechanism
	// for why small fleet calls kill PCIe offload (§3.5.1, §6.2).
	rocc := streamCycles(s, 1<<10, RoCC, ClassRaw)
	pcie := streamCycles(s, 1<<10, PCIeNoCache, ClassRaw)
	if pcie/rocc < 5 {
		t.Errorf("small-call PCIe/RoCC ratio only %.1f", pcie/rocc)
	}
}

func TestAccessCyclesSerial(t *testing.T) {
	s := &System{}
	if s.AccessCyclesAt(RoCC, ClassIntermediate, 0) != s.RTT(RoCC, ClassIntermediate) {
		t.Error("dependent access within the L2's reach should cost one RTT")
	}
}

func TestPlacementStrings(t *testing.T) {
	for _, p := range Placements {
		if p.String() == "" {
			t.Errorf("placement %d has no name", int(p))
		}
	}
}

func TestAccessCyclesAtDistance(t *testing.T) {
	s := &System{}
	near := s.AccessCyclesAt(RoCC, ClassIntermediate, 64<<10)
	far := s.AccessCyclesAt(RoCC, ClassIntermediate, 8<<20)
	if near != l2Latency {
		t.Errorf("L2-reach access = %f, want %d", near, l2Latency)
	}
	if far != dramLatency {
		t.Errorf("DRAM-reach access = %f, want %d", far, dramLatency)
	}
	// Across a link both still pay the link.
	if s.AccessCyclesAt(PCIeNoCache, ClassIntermediate, 8<<20) <= far {
		t.Error("remote DRAM access should add the link")
	}
	// PCIeLocalCache intermediate stays on-card even for deep reaches.
	if got := s.AccessCyclesAt(PCIeLocalCache, ClassIntermediate, 8<<20); got != far {
		t.Errorf("on-card DRAM access = %f, want %f", got, far)
	}
}

func TestStreamBandwidthClassRulesExact(t *testing.T) {
	// Direct pin of the class rules at the SoC constants (Beat 32, L2 24,
	// MSHRs 32, PCIeTags 16): bandwidth = min(width, outstanding*width/RTT),
	// where the PCIe tag cap applies only to traffic that actually crosses
	// PCIe — so PCIeLocalCache intermediate traffic runs at full NoC width
	// while its raw traffic is tag-capped, and the chiplet link is governed
	// by the on-die MSHR budget even though it is smaller than no cap at all.
	s := &System{}
	cases := []struct {
		p    Placement
		c    Class
		want float64
	}{
		{RoCC, ClassRaw, 32}, // window 32*32/24 = 42.7 > width
		{RoCC, ClassIntermediate, 32},
		{Chiplet, ClassRaw, 32 * 32 / 74.0},          // RTT 24+50; MSHR-bound
		{Chiplet, ClassIntermediate, 32 * 32 / 74.0}, // chiplet has no local cache
		{PCIeLocalCache, ClassRaw, 16 * 32 / 424.0},  // RTT 24+400; tag-capped
		{PCIeLocalCache, ClassIntermediate, 32},      // on-card: exempt from link AND tag cap
		{PCIeNoCache, ClassRaw, 16 * 32 / 424.0},
		{PCIeNoCache, ClassIntermediate, 16 * 32 / 424.0}, // no card storage: everything crosses PCIe
	}
	for _, c := range cases {
		if got := s.StreamBandwidth(c.p, c.c); got != c.want {
			t.Errorf("StreamBandwidth(%s, class %d) = %v, want %v", c.p, c.c, got, c.want)
		}
	}
}
