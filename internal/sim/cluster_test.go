package sim

import (
	"fmt"
	"strings"
	"testing"

	"cdpu/internal/cluster"
	"cdpu/internal/fault"
	"cdpu/internal/obs"
	"cdpu/internal/resil"
)

// clusterPolicy is the reference full failover policy: bounded failover hops
// with a per-hop penalty, a circuit breaker armed on both consecutive failures
// and windowed error rate, hedged dispatch, and explicit crash/restart costs.
func clusterPolicy() cluster.FailoverPolicy { return cluster.ReferenceFailoverPolicy() }

// clusterConfig is the chaos replay of chaosConfig plus a replica group per
// device slot, the failover policy above, and a seeded device-lifecycle storm
// mixing crashes, hangs and brownouts over short epochs (so the 150-call
// replay spans several event windows per replica).
func clusterConfig(workers int) Config {
	return Config{
		Seed:         21,
		Calls:        150,
		MaxCallBytes: 96 << 10,
		Workers:      workers,
		Resilience:   testPolicy(),
		Storm:        &fault.Storm{Seed: 77, Rate: 0.15, MeanRepeats: 1},
		Replicas:     3,
		Failover:     clusterPolicy(),
		Lifecycle: &fault.Lifecycle{
			Seed:           404,
			Rate:           0.5,
			EpochCalls:     64,
			MeanEventCalls: 32,
		},
	}
}

// TestClusterRunSurvivesLifecycle pins the headline failover behavior: a
// replay under a 50% device-lifecycle storm (crashes, hangs, brownouts)
// layered on a 15% transient-fault storm completes with no error, sheds
// nothing, and reports every failover mechanism firing. The cluster.* obs
// counters must reconcile exactly with the Report totals.
func TestClusterRunSurvivesLifecycle(t *testing.T) {
	fo0 := obs.Default().Counter("cluster.failovers").Value()
	hg0 := obs.Default().Counter("cluster.hedged_calls").Value()
	op0 := obs.Default().Counter("cluster.breaker_opens").Value()
	rs0 := obs.Default().Counter("cluster.replica_restarts").Value()
	r, err := Run(clusterConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if r.Failovers == 0 {
		t.Error("lifecycle storm triggered no failovers")
	}
	if r.BreakerOpens == 0 {
		t.Error("no circuit breaker opened under a 50% lifecycle storm")
	}
	if r.HedgedCalls == 0 {
		t.Error("no hedged dispatches fired")
	}
	if r.ShedCalls != 0 {
		t.Errorf("%d calls shed despite failover and fallback", r.ShedCalls)
	}
	if r.GoodputBytes != r.UncompressedBytes {
		t.Errorf("goodput %d != offered %d with zero sheds", r.GoodputBytes, r.UncompressedBytes)
	}
	if d := obs.Default().Counter("cluster.failovers").Value() - fo0; d != int64(r.Failovers) {
		t.Errorf("failover counter delta %d != report %d", d, r.Failovers)
	}
	if d := obs.Default().Counter("cluster.hedged_calls").Value() - hg0; d != int64(r.HedgedCalls) {
		t.Errorf("hedged counter delta %d != report %d", d, r.HedgedCalls)
	}
	if d := obs.Default().Counter("cluster.breaker_opens").Value() - op0; d != int64(r.BreakerOpens) {
		t.Errorf("breaker-open counter delta %d != report %d", d, r.BreakerOpens)
	}
	if d := obs.Default().Counter("cluster.replica_restarts").Value() - rs0; d != int64(r.ReplicaRestarts) {
		t.Errorf("restart counter delta %d != report %d", d, r.ReplicaRestarts)
	}
}

// TestClusterReplicaRestartRejoins drives the full drain/restart arc in
// isolation: a crash-only lifecycle with short event windows and a
// single-failure breaker with a short open window, so within one replay a
// replica crashes, its breaker opens and books unavailability, the open
// window expires into half-open, the probe finds the crash window over, and
// the replica rejoins through a charged warm restart.
func TestClusterReplicaRestartRejoins(t *testing.T) {
	cfg := Config{
		Seed:         21,
		Calls:        150,
		MaxCallBytes: 96 << 10,
		Workers:      4,
		Replicas:     2,
		Resilience:   resil.Policy{SoftwareFallback: true},
		Failover: cluster.FailoverPolicy{
			MaxFailovers:          2,
			FailoverPenaltyCycles: 2000,
			BreakerFailures:       1,
			BreakerOpenCycles:     3e4,
			BreakerHalfOpenProbes: 1,
			CrashDetectCycles:     4000,
			RestartCycles:         50000,
		},
		Lifecycle: &fault.Lifecycle{
			Seed:           11,
			Rate:           0.8,
			Kinds:          []fault.LifeKind{fault.LifeCrash},
			EpochCalls:     24,
			MeanEventCalls: 6,
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ReplicaRestarts == 0 {
		t.Error("no crashed replica warm-restarted")
	}
	if r.BreakerOpens == 0 {
		t.Error("single-failure breaker never opened under crash storm")
	}
	if r.UnavailableCycles <= 0 {
		t.Error("expired breaker windows booked no unavailability")
	}
	if r.Failovers == 0 {
		t.Error("crashes triggered no failovers")
	}
	if r.GoodputBytes != r.UncompressedBytes || r.ShedCalls != 0 {
		t.Errorf("restart replay lost traffic: goodput %d / offered %d, shed %d",
			r.GoodputBytes, r.UncompressedBytes, r.ShedCalls)
	}
}

// TestClusterReportWorkerInvariant pins the determinism contract for cluster
// mode: the Report under crash/hang/brownout lifecycle faults with failover
// and hedging is byte-identical at every worker count, including runs where
// replicas crash mid-replay. Tracing must not perturb it either.
func TestClusterReportWorkerInvariant(t *testing.T) {
	want, err := Run(clusterConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		got, err := Run(clusterConfig(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: cluster report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
	traced := clusterConfig(4)
	traced.Trace = obs.NewTrace(2.0)
	got, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("tracing changed the cluster report:\n got %+v\nwant %+v", got, want)
	}
	if traced.Trace.Len() == 0 {
		t.Error("traced cluster run recorded no spans")
	}
}

// TestClusterBitCompatSingleReplica pins the compatibility contract from two
// directions. First: Replicas=1 with the zero failover policy and no
// lifecycle does not route through the cluster path at all, so the Report is
// the same struct the pre-cluster engine produced (the golden-report test
// already pins those bytes). Second: forcing the cluster dispatcher with an
// event-free lifecycle (non-nil, rate zero) at one replica and the zero
// policy must reproduce the single-device engine bit for bit — the
// dispatcher's R=1 degenerate case is the historical ReplayPolicy.
func TestClusterBitCompatSingleReplica(t *testing.T) {
	want, err := Run(chaosConfig(4))
	if err != nil {
		t.Fatal(err)
	}

	explicit := chaosConfig(4)
	explicit.Replicas = 1
	got, err := Run(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("explicit Replicas=1 differs from default:\n got %+v\nwant %+v", got, want)
	}

	forced := chaosConfig(4)
	forced.Replicas = 1
	forced.Lifecycle = &fault.Lifecycle{Seed: 1, Rate: 0}
	got, err = Run(forced)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("cluster path at R=1 + zero policy differs from single-device engine:\n got %+v\nwant %+v", got, want)
	}
}

// TestClusterFirstErrorIsLowestIndex is the failover-path regression test for
// deterministic first-error capture: when every replica of every group
// crashes (rate-1 crash-only lifecycle whose events run to their epoch
// boundary) with no failover headroom and no software fallback, the run
// aborts — and the surfaced error must name the same lowest failing call
// index at every worker count, even though four group reductions race to
// fail. The lowest-index claim is then proven directly: replaying only the
// calls before the named index (sampling is sequential, so the prefix is
// identical) must succeed.
func TestClusterFirstErrorIsLowestIndex(t *testing.T) {
	life := &fault.Lifecycle{
		Seed:           7,
		Rate:           1,
		Kinds:          []fault.LifeKind{fault.LifeCrash},
		EpochCalls:     32,
		MeanEventCalls: 1 << 20, // events run to the epoch boundary: replicas never rejoin
	}
	abortCfg := func(workers, calls int) Config {
		return Config{
			Seed:         21,
			Calls:        calls,
			MaxCallBytes: 96 << 10,
			Workers:      workers,
			Replicas:     2,
			Lifecycle:    life,
		}
	}
	var first string
	for _, workers := range []int{1, 4, 8} {
		_, err := Run(abortCfg(workers, 150))
		if err == nil {
			t.Fatalf("workers=%d: all-replicas-down replay without fallback survived", workers)
		}
		if first == "" {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("workers=%d: abort error differs from serial run:\n got %v\nwant %v", workers, err, first)
		}
	}
	if !strings.Contains(first, "replica-down") {
		t.Errorf("abort error does not carry the replica-down reason: %v", first)
	}
	var failIdx int
	if _, err := fmt.Sscanf(first, "sim: call %d:", &failIdx); err != nil {
		t.Fatalf("abort error does not name the failing call: %v", first)
	}
	if _, err := Run(abortCfg(4, failIdx)); err != nil {
		t.Errorf("prefix before reported first failure (calls 0..%d) did not succeed: %v", failIdx-1, err)
	}
}

// TestClusterSoftwareFallbackWhenAllDown pins the opposite policy outcome of
// the abort test above: the same all-crashed cluster with software fallback
// on serves every call on the modeled CPU path instead of aborting.
func TestClusterSoftwareFallbackWhenAllDown(t *testing.T) {
	cfg := Config{
		Seed:         21,
		Calls:        60,
		MaxCallBytes: 64 << 10,
		Workers:      4,
		Replicas:     2,
		Resilience:   resil.Policy{SoftwareFallback: true},
		Lifecycle: &fault.Lifecycle{
			Seed:           7,
			Rate:           1,
			Kinds:          []fault.LifeKind{fault.LifeCrash},
			EpochCalls:     32,
			MeanEventCalls: 1 << 20,
		},
	}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.ShedCalls != 0 {
		t.Errorf("%d calls shed with software fallback on", r.ShedCalls)
	}
	if r.DegradedCalls == 0 {
		t.Error("all replicas down yet no call was served degraded")
	}
	if r.GoodputBytes != r.UncompressedBytes {
		t.Errorf("goodput %d != offered %d", r.GoodputBytes, r.UncompressedBytes)
	}
}

// TestClusterGoodputMonotoneInReplicas pins the capacity story the failover
// sweep tables: under a fixed lifecycle storm with failover on, adding
// replicas never reduces served bytes.
func TestClusterGoodputMonotoneInReplicas(t *testing.T) {
	prev := -1
	for replicas := 1; replicas <= 4; replicas++ {
		cfg := clusterConfig(4)
		cfg.Replicas = replicas
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		if r.GoodputBytes < prev {
			t.Errorf("replicas=%d: goodput %d below %d at replicas=%d",
				replicas, r.GoodputBytes, prev, replicas-1)
		}
		prev = r.GoodputBytes
	}
}
