package cluster

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/core"
	"cdpu/internal/fault"
	"cdpu/internal/resil"
	"cdpu/internal/traffic"
)

// synthCalls builds a deterministic arrival-sorted call list with varied
// service times.
func synthCalls(n int, seed uint64) []Call {
	calls := make([]Call, n)
	at := 0.0
	state := seed
	for i := range calls {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		svc := 1000 + float64(z%100000)
		calls[i] = Call{
			Arrival:    at,
			Index:      i,
			Service:    svc,
			Brown:      svc * 4,
			HangBudget: 8 * (10000 + 16*4096),
			Bytes:      4096,
		}
		at += float64(z>>32%20000) + 500
	}
	return calls
}

func refPolicy() FailoverPolicy {
	return FailoverPolicy{
		MaxFailovers:          3,
		FailoverPenaltyCycles: 2000,
		BreakerFailures:       3,
		BreakerWindow:         32,
		BreakerErrorRate:      0.5,
		BreakerOpenCycles:     2e6,
		BreakerHalfOpenProbes: 2,
		CrashDetectCycles:     4000,
	}
}

// TestGroupMatchesReplayPolicy pins the dispatch arithmetic to the
// single-device engine: with one replica, the zero failover policy and no
// lifecycle, Group.Replay must reproduce core.Device.ReplayPolicy exactly —
// results, stats, admission shedding and quarantines included. The fleet
// replay steps every device as such a group, so this equality is what makes a
// lone device and a replica group one stepper; the second scenario extends it
// to class-differentiated admission and deadline shedding.
func TestGroupMatchesReplayPolicy(t *testing.T) {
	dev, err := core.NewDevice(core.Config{Algo: comp.ZStd, Op: comp.Decompress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Pile up a queue so admission control engages, and sprinkle faults so
	// quarantine engages.
	base := synthCalls(500, 7)
	for i := range base {
		base[i].Arrival = float64(i) * 800
		if i%17 == 0 {
			base[i].Faults = 2
		}
		if i%23 == 0 {
			base[i].Post = 5000
		}
	}
	// Mixed priorities over the full queue, with per-class targets tight
	// enough that the backlog makes some calls hopeless on arrival.
	classed := append([]Call(nil), base...)
	for i := range classed {
		classed[i].Arrival = float64(i) * 12000
		classed[i].Priority = i % 3
		classed[i].Target = 90000 * float64(int(1)<<(2*classed[i].Priority))
	}
	basePol := resil.Policy{
		MaxQueue: 4, QuarantineK: 3, QuarantineWindowCycles: 2e6,
		QuarantinePenaltyCycles: 1e5,
	}
	classedPol := basePol
	classedPol.MaxQueue = 8
	classedPol.PriorityClasses = 3
	classedPol.DeadlineFactor = 2
	for _, sc := range []struct {
		name  string
		calls []Call
		pol   resil.Policy
	}{
		{"queue-quarantine-post", base, basePol},
		{"priority-deadline", classed, classedPol},
	} {
		t.Run(sc.name, func(t *testing.T) {
			calls, pol := sc.calls, sc.pol
			jobs := make([]core.Job, len(calls))
			svc := make([]float64, len(calls))
			post := make([]float64, len(calls))
			flt := make([]int, len(calls))
			for i, c := range calls {
				jobs[i] = core.Job{Arrival: c.Arrival, Priority: c.Priority, Target: c.Target}
				svc[i], post[i], flt[i] = c.Service, c.Post, c.Faults
			}
			wantRes, wantStats, err := dev.ReplayPolicy(jobs, svc, post, flt, pol)
			if err != nil {
				t.Fatal(err)
			}
			g := &Group{Replicas: 1, Pipelines: 2, ResetCycles: dev.PipelineResetCycles(), Resil: pol}
			gotRes, gotStats, tot, err := g.Replay(calls)
			if err != nil {
				t.Fatal(err)
			}
			if gotStats != wantStats {
				t.Fatalf("stats diverge:\n got %+v\nwant %+v", gotStats, wantStats)
			}
			if len(gotRes) != len(wantRes) {
				t.Fatalf("%d results, want %d", len(gotRes), len(wantRes))
			}
			var queueShed [3]int
			for i := range wantRes {
				w, g := wantRes[i], gotRes[i]
				if w.Queue != g.Queue || w.Service != g.Service || w.Latency != g.Latency ||
					w.Start != g.Start || w.Pipeline != g.Pipeline || !errors.Is(g.Err, w.Err) {
					t.Fatalf("call %d diverges:\n got %+v\nwant %+v", i, g, w)
				}
				if errors.Is(w.Err, resil.ErrShed) {
					queueShed[calls[i].Priority]++
				}
			}
			if tot.Failovers != 0 || tot.HedgedCalls != 0 || tot.BreakerOpens != 0 || tot.ReplicaRestarts != 0 {
				t.Fatalf("failover machinery fired with the zero policy: %+v", tot)
			}
			// The scenario must reach the paths it claims to compare.
			if wantStats.Quarantines == 0 || wantStats.Shed == 0 {
				t.Fatalf("scenario too light: %+v", wantStats)
			}
			if pol.DeadlineFactor > 0 {
				if wantStats.DeadlineShed == 0 || wantStats.DeadlineShed == wantStats.Shed {
					t.Fatalf("want both deadline and queue-bound sheds: %+v", wantStats)
				}
				if queueShed[2] <= queueShed[0] {
					t.Fatalf("queue-bound sheds by class %v: lowest class not refused first", queueShed)
				}
			}
		})
	}
}

func TestGroupReplayDeterministic(t *testing.T) {
	life := &fault.Lifecycle{Seed: 5, Rate: 0.3, EpochCalls: 64}
	pol := refPolicy()
	pol.Hedge = true
	pol.HedgeDelayCycles = 120000
	g := &Group{
		Replicas: 3, Pipelines: 2, ResetCycles: 9000, Unit: "zstd-d",
		Resil:  resil.Policy{SoftwareFallback: true},
		Policy: pol, Lifecycle: life,
	}
	calls := synthCalls(800, 11)
	for i := range calls {
		calls[i].Software = calls[i].Service * 40
	}
	res1, st1, tot1, err1 := g.Replay(calls)
	res2, st2, tot2, err2 := g.Replay(calls)
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v, %v", err1, err2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverge across identical replays:\n%+v\n%+v", st1, st2)
	}
	if !reflect.DeepEqual(tot1, tot2) {
		t.Fatalf("totals diverge:\n%+v\n%+v", tot1, tot2)
	}
	for i := range res1 {
		if res1[i] != res2[i] {
			t.Fatalf("result %d diverges", i)
		}
	}
}

// TestGroupFailoverSurvivesLifecycle is the core robustness claim: under a
// heavy crash/hang/brownout schedule, a group with failover serves every
// call (no aborts), while the same schedule with the zero policy aborts.
func TestGroupFailoverSurvivesLifecycle(t *testing.T) {
	life := &fault.Lifecycle{Seed: 3, Rate: 0.5, EpochCalls: 64, MeanEventCalls: 32}
	calls := synthCalls(1000, 13)
	for i := range calls {
		calls[i].Software = calls[i].Service * 40
	}

	g := &Group{
		Replicas: 3, Pipelines: 2, ResetCycles: 9000, Unit: "snappy-c",
		Resil:  resil.Policy{SoftwareFallback: true},
		Policy: refPolicy(), Lifecycle: life,
	}
	results, devStats, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatalf("failover group aborted: %v", err)
	}
	servedCalls := 0
	for i := range results {
		if results[i].Err == nil {
			servedCalls++
		}
	}
	if servedCalls != len(calls) {
		t.Fatalf("served %d of %d calls", servedCalls, len(calls))
	}
	if tot.Failovers == 0 {
		t.Error("no failovers under a 50% lifecycle storm")
	}
	if tot.ReplicaRestarts == 0 {
		t.Error("no warm restarts despite crash windows")
	}
	if tot.BreakerOpens == 0 {
		t.Error("no breaker opens despite sustained failures")
	}
	if tot.UnavailableCycles <= 0 {
		t.Error("breaker opens booked no unavailability")
	}
	if devStats.Makespan <= 0 || devStats.P99Latency < devStats.P50Latency {
		t.Errorf("implausible stats: %+v", devStats)
	}

	// Abort baseline: same weather, zero policies — the group must abort,
	// with a replica-down DeviceError carrying the lowest failing index.
	ab := &Group{Replicas: 3, Pipelines: 2, ResetCycles: 9000, Unit: "snappy-c", Lifecycle: life}
	_, _, _, err = ab.Replay(calls)
	if err == nil {
		t.Fatal("zero-policy group survived the lifecycle storm")
	}
	var ce *CallError
	if !errors.As(err, &ce) {
		t.Fatalf("abort error is not a CallError: %v", err)
	}
	var derr *core.DeviceError
	if !errors.As(err, &derr) || derr.Reason != "replica-down" {
		t.Fatalf("abort error is not a replica-down DeviceError: %v", err)
	}
	// Lowest-index guarantee: no call below the reported index is unservable
	// under the same single-candidate zero policy. Re-running on the prefix
	// must succeed.
	if ce.Index > 0 {
		prefix := calls[:ce.Index]
		if _, _, _, perr := ab.Replay(prefix); perr != nil {
			t.Fatalf("call below reported abort index %d also fails: %v", ce.Index, perr)
		}
	}
}

// TestGroupGoodputMonotoneInReplicas: adding replicas under a fixed lifecycle
// schedule must not reduce served calls.
func TestGroupServedMonotoneInReplicas(t *testing.T) {
	life := &fault.Lifecycle{Seed: 17, Rate: 0.4, EpochCalls: 64}
	calls := synthCalls(600, 23)
	prev := -1
	for _, replicas := range []int{1, 2, 3, 4} {
		g := &Group{
			Replicas: replicas, Pipelines: 2, ResetCycles: 9000,
			Resil:  resil.Policy{SoftwareFallback: true},
			Policy: refPolicy(), Lifecycle: life,
		}
		cs := make([]Call, len(calls))
		copy(cs, calls)
		for i := range cs {
			cs[i].Software = cs[i].Service * 40
		}
		_, _, tot, err := g.Replay(cs)
		if err != nil {
			t.Fatalf("replicas=%d: %v", replicas, err)
		}
		deviceServed := 0
		for _, d := range tot.Dispatches {
			deviceServed += d
		}
		if deviceServed < prev {
			t.Fatalf("device-served calls shrank from %d to %d at replicas=%d", prev, deviceServed, replicas)
		}
		prev = deviceServed
	}
}

// TestGroupHedging: under a brownout-heavy lifecycle, calls stuck on a
// degraded replica hedge to a healthy one and win; hedging must not make
// mean latency worse than the unhedged run under the same weather.
func TestGroupHedging(t *testing.T) {
	life := &fault.Lifecycle{
		Seed: 29, Rate: 0.6, Kinds: []fault.LifeKind{fault.LifeBrownout},
		EpochCalls: 64, MeanEventCalls: 48,
	}
	calls := synthCalls(600, 31)
	// Light load: hedging helps when spare capacity exists; under overload
	// duplicate dispatches only deepen queues.
	for i := range calls {
		calls[i].Arrival *= 10
	}
	pol := refPolicy()
	pol.Hedge = true
	pol.HedgeDelayCycles = 120000
	g := &Group{Replicas: 3, Pipelines: 2, ResetCycles: 9000, Policy: pol, Lifecycle: life}
	_, hedged, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.HedgedCalls == 0 {
		t.Fatal("no hedges fired under a brownout storm")
	}
	if tot.HedgeWins == 0 {
		t.Fatal("no hedge ever won against a browned-out primary")
	}
	if tot.HedgeWins > tot.HedgedCalls {
		t.Fatalf("wins %d exceed hedges %d", tot.HedgeWins, tot.HedgedCalls)
	}
	gNo := &Group{Replicas: 3, Pipelines: 2, ResetCycles: 9000, Policy: refPolicy(), Lifecycle: life}
	_, plain, _, err := gNo.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if hedged.MeanLatency > plain.MeanLatency*1.001 {
		t.Fatalf("hedging worsened mean latency: %.0f vs %.0f", hedged.MeanLatency, plain.MeanLatency)
	}
}

// TestGroupAllDownSoftwareFallback: one replica crashed for a whole window
// with fallback enabled serves in software and counts degraded calls.
func TestGroupAllDownSoftwareFallback(t *testing.T) {
	life := &fault.Lifecycle{
		Seed: 2, Rate: 1.0, Kinds: []fault.LifeKind{fault.LifeCrash},
		EpochCalls: 32, MeanEventCalls: 32,
	}
	// Rate 1 with short epochs and near-epoch-length events: the lone
	// replica is crashed for large stretches of the replay.
	calls := synthCalls(300, 41)
	for i := range calls {
		calls[i].Software = calls[i].Service * 40
	}
	g := &Group{
		Replicas: 1, Pipelines: 2, ResetCycles: 9000,
		Resil:  resil.Policy{SoftwareFallback: true},
		Policy: refPolicy(), Lifecycle: life,
	}
	results, _, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.SwServed == 0 {
		t.Fatal("no software-served calls with the only replica crashed")
	}
	if tot.Degraded != tot.SwServed {
		t.Fatalf("degraded %d != sw-served %d with no phase-B degradation", tot.Degraded, tot.SwServed)
	}
	for i := range results {
		if results[i].Err != nil {
			t.Fatalf("call %d not served: %v", i, results[i].Err)
		}
	}
	// Without fallback the same schedule aborts.
	g.Resil = resil.Policy{}
	for i := range calls {
		calls[i].Software = 0
	}
	if _, _, _, err := g.Replay(calls); err == nil {
		t.Fatal("all-down group without fallback did not abort")
	}
}

// TestGroupBrownoutUsesDegradedService: calls landing in a brownout window
// are charged the degraded service time.
func TestGroupBrownoutUsesDegradedService(t *testing.T) {
	life := &fault.Lifecycle{
		Seed: 9, Rate: 1.0, Kinds: []fault.LifeKind{fault.LifeBrownout},
		EpochCalls: 32, MeanEventCalls: 32,
	}
	calls := synthCalls(200, 43)
	g := &Group{Replicas: 1, Pipelines: 2, ResetCycles: 9000, Policy: refPolicy(), Lifecycle: life}
	browned, _, _, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	gH := &Group{Replicas: 1, Pipelines: 2, ResetCycles: 9000, Policy: refPolicy()}
	healthy, _, _, err := gH.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	slower := 0
	for i := range browned {
		if browned[i].Service > healthy[i].Service {
			slower++
		}
	}
	if slower == 0 {
		t.Fatal("no call charged the brownout service time under a permanent brownout")
	}
}

// TestGroupRestartChargedOnRejoin: a crash window followed by healthy calls
// charges exactly one warm restart, and the rejoining call pays it in queue
// time.
func TestGroupRestartChargedOnRejoin(t *testing.T) {
	life := &fault.Lifecycle{
		Seed: 1, Rate: 1.0, Kinds: []fault.LifeKind{fault.LifeCrash},
		EpochCalls: 64, MeanEventCalls: 16,
	}
	calls := synthCalls(400, 47)
	for i := range calls {
		calls[i].Software = calls[i].Service * 40
	}
	g := &Group{
		Replicas: 2, Pipelines: 2, ResetCycles: 9000,
		Resil:  resil.Policy{SoftwareFallback: true},
		Policy: refPolicy(), Lifecycle: life,
	}
	_, _, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.ReplicaRestarts == 0 {
		t.Fatal("no restarts after crash windows ended")
	}
	if tot.ReplicaRestarts > tot.BreakerOpens+tot.Failovers+1 {
		t.Fatalf("implausible restart count %d", tot.ReplicaRestarts)
	}
}

func TestGroupRejectsBadInputs(t *testing.T) {
	g := &Group{Replicas: 2, Pipelines: 1}
	if _, _, _, err := g.Replay([]Call{{Arrival: 10}, {Arrival: 5}}); err == nil {
		t.Error("unsorted arrivals accepted")
	}
	if _, _, _, err := g.Replay([]Call{{Service: math.Inf(1)}}); err == nil {
		t.Error("infinite service accepted")
	}
	if _, _, _, err := g.Replay([]Call{{Service: -1}}); err == nil {
		t.Error("negative service accepted")
	}
	if _, _, _, err := g.Replay([]Call{{HangBudget: math.NaN()}}); err == nil {
		t.Error("NaN hang budget accepted")
	}
	res, st, tot, err := g.Replay(nil)
	if err != nil || res != nil || st != (core.DeviceStats{}) || len(tot.Dispatches) != 2 {
		t.Error("empty replay not a clean no-op")
	}
}

func TestFailoverPolicyEnabled(t *testing.T) {
	if (FailoverPolicy{}).Enabled() {
		t.Error("zero policy reports enabled")
	}
	if !(FailoverPolicy{MaxFailovers: 1}).Enabled() {
		t.Error("failover policy reports disabled")
	}
	if !(FailoverPolicy{Hedge: true}).Enabled() {
		t.Error("hedge policy reports disabled")
	}
}

// TestHedgeColdStart: Hedge with no HedgeDelayCycles never hedges — the delay
// is configured or hedging is off; nothing is derived from the calls served so
// far, however tail-heavy they are.
func TestHedgeColdStart(t *testing.T) {
	calls := synthCalls(400, 53)
	for i := range calls {
		if i%5 == 0 {
			calls[i].Service *= 200
		}
	}
	pol := refPolicy()
	pol.Hedge = true
	g := &Group{Replicas: 2, Pipelines: 2, ResetCycles: 9000, Policy: pol}
	_, _, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.HedgedCalls != 0 {
		t.Fatalf("hedging fired %d times with no delay configured", tot.HedgedCalls)
	}
}

// TestGroupAutoscale: a saturating burst scales the group up from its
// minimum (paying the warm-restart charge in queue time), the quiet tail
// scales it back down, and cooldown bounds the decision rate.
func TestGroupAutoscale(t *testing.T) {
	calls := synthCalls(600, 59)
	// First 400 calls arrive far faster than one replica serves; the last
	// 200 are sparse enough for a single replica.
	for i := range calls {
		if i < 400 {
			calls[i].Arrival = float64(i) * 2000
		} else {
			calls[i].Arrival = 800000 + float64(i-400)*300000
		}
	}
	auto := traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 8, DownQueueDepth: 1, CooldownCycles: 50000}
	g := &Group{Replicas: 4, Pipelines: 2, ResetCycles: 9000, Autoscale: auto}
	_, stats, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.ScaleUps == 0 {
		t.Fatal("burst never scaled the group up")
	}
	if tot.ScaleDowns == 0 {
		t.Fatal("quiet tail never scaled the group down")
	}
	if tot.ScaleUps > 3+tot.ScaleDowns {
		t.Fatalf("more activations than deployed spares allow: up %d down %d", tot.ScaleUps, tot.ScaleDowns)
	}

	// The scaled group must beat the pinned minimum on mean latency (extra
	// replicas absorbed the burst) while a fully-active fixed group of the
	// same size is at least as fast (autoscaling is reactive, not free).
	gMin := &Group{Replicas: 1, Pipelines: 2, ResetCycles: 9000}
	_, minStats, _, err := gMin.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	gFix := &Group{Replicas: 4, Pipelines: 2, ResetCycles: 9000}
	_, fixStats, _, err := gFix.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if stats.MeanLatency >= minStats.MeanLatency {
		t.Fatalf("autoscaled mean %.0f no better than pinned minimum %.0f", stats.MeanLatency, minStats.MeanLatency)
	}
	if fixStats.MeanLatency > stats.MeanLatency*1.001 {
		t.Fatalf("fixed 4-replica mean %.0f worse than autoscaled %.0f", fixStats.MeanLatency, stats.MeanLatency)
	}

	// A prohibitive cooldown pins the group at one scale-up.
	auto.CooldownCycles = 1e12
	gCool := &Group{Replicas: 4, Pipelines: 2, ResetCycles: 9000, Autoscale: auto}
	_, _, coolTot, err := gCool.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if coolTot.ScaleUps+coolTot.ScaleDowns != 1 {
		t.Fatalf("prohibitive cooldown allowed %d decisions", coolTot.ScaleUps+coolTot.ScaleDowns)
	}
}

// TestGroupPriorityShed: under overload with priority classes, admission
// refuses the lowest class first — bronze sheds strictly more than gold.
func TestGroupPriorityShed(t *testing.T) {
	calls := synthCalls(600, 61)
	// Overload: arrivals an order of magnitude faster than service.
	for i := range calls {
		calls[i].Arrival = float64(i) * 300
		calls[i].Priority = i % 3
	}
	g := &Group{
		Replicas: 1, Pipelines: 2, ResetCycles: 9000,
		Resil: resil.Policy{MaxQueue: 8, PriorityClasses: 3},
	}
	results, _, _, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	var shed [3]int
	for i := range results {
		if errors.Is(results[i].Err, resil.ErrShed) {
			shed[calls[i].Priority]++
		}
	}
	if shed[2] == 0 {
		t.Fatal("no bronze call shed under 10x overload")
	}
	if !(shed[0] <= shed[1] && shed[1] <= shed[2]) {
		t.Fatalf("shed counts not ordered by priority: %v", shed)
	}
	if shed[0] >= shed[2] {
		t.Fatalf("gold shed as much as bronze: %v", shed)
	}

	// Without priority classes every class sees the same bound, so the shed
	// distribution flattens to the arrival pattern.
	g.Resil.PriorityClasses = 0
	results, _, _, err = g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	var flat [3]int
	for i := range results {
		if errors.Is(results[i].Err, resil.ErrShed) {
			flat[calls[i].Priority]++
		}
	}
	if flat[2] > flat[0]+len(calls)/20 {
		t.Fatalf("classless admission still skewed against bronze: %v", flat)
	}
}

// TestAutoscaleSkipsOpenBreaker: a drained replica whose breaker is still
// open from its active days must not be re-activated by scale-up — routing a
// burst into a known-sick card — until the open window expires into
// half-open.
func TestAutoscaleSkipsOpenBreaker(t *testing.T) {
	auto := traffic.Autoscale{MinReplicas: 1, UpQueueDepth: 2, CooldownCycles: 1000}
	pol := FailoverPolicy{BreakerFailures: 1, BreakerOpenCycles: 5e5}
	g := &Group{Replicas: 2, Pipelines: 1, ResetCycles: 1000, Autoscale: auto, Policy: pol}
	st := g.NewState(32)
	st.brk[1].OnFailure(0) // replica 1 tripped while it was last active
	if st.brk[1].State() != BreakerOpen {
		t.Fatal("setup: breaker did not open")
	}
	// A backlog an order of magnitude over the up threshold, entirely inside
	// the open window: the scaler must sit on its hands.
	for i := 0; i < 20; i++ {
		if err := st.Step(&Call{Arrival: float64(i) * 1e4, Index: i, Service: 1e5}); err != nil {
			t.Fatal(err)
		}
	}
	if st.tot.ScaleUps != 0 || st.active != 1 {
		t.Fatalf("scaled up into an open breaker: ups=%d active=%d", st.tot.ScaleUps, st.active)
	}
	// Past the open window the breaker is probe-able and the still-deep queue
	// activates the replica on the next arrival.
	if err := st.Step(&Call{Arrival: 6e5, Index: 20, Service: 1e5}); err != nil {
		t.Fatal(err)
	}
	if st.tot.ScaleUps != 1 || st.active != 2 {
		t.Fatalf("expired breaker still blocks scale-up: ups=%d active=%d", st.tot.ScaleUps, st.active)
	}
}

// TestGroupBurnAutoscale: with UpBurn set the scaler keys on SLO harm, not
// queue depth — an overloaded open phase (every call far over target) scales
// the group up, and a quiet tail burns the window clean and drains it back.
func TestGroupBurnAutoscale(t *testing.T) {
	calls := synthCalls(600, 71)
	for i := range calls {
		if i < 400 {
			calls[i].Arrival = float64(i) * 2000 // ~25x one replica's throughput
		} else {
			calls[i].Arrival = 800000 + float64(i-400)*300000
		}
		calls[i].Target = 2e5
	}
	auto := traffic.Autoscale{
		MinReplicas: 1, UpBurn: 4, DownBurn: 1,
		CooldownCycles: 50000, BurnWindowCycles: 4e6,
	}
	g := &Group{Replicas: 4, Pipelines: 2, ResetCycles: 9000, Autoscale: auto}
	_, devStats, tot, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if tot.ScaleUps == 0 {
		t.Fatal("burn-driven scaler never scaled up under overload")
	}
	if tot.ScaleDowns == 0 {
		t.Fatal("burn-driven scaler never drained in the quiet tail")
	}
	if devStats.Jobs != len(calls) {
		t.Fatalf("jobs %d, want %d", devStats.Jobs, len(calls))
	}
	// Replay is serial: a second pass must be byte-identical.
	_, devStats2, tot2, err := g.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if devStats != devStats2 || tot.ScaleUps != tot2.ScaleUps || tot.ScaleDowns != tot2.ScaleDowns {
		t.Fatalf("burn autoscale not deterministic: %+v vs %+v", tot, tot2)
	}
}

// TestGroupDeadlineShed: deadline-aware admission sheds exactly the calls
// whose earliest completion already misses factor x target, cuts the device
// cycles wasted on over-target work, and vanishes bit-exactly when the factor
// is zero.
func TestGroupDeadlineShed(t *testing.T) {
	mk := func() []Call {
		calls := synthCalls(400, 67)
		for i := range calls {
			calls[i].Arrival = float64(i) * 2000 // sustained overload
			calls[i].Target = 5e4
		}
		return calls
	}
	wasted := func(calls []Call, results []core.JobResult, factor float64) float64 {
		w := 0.0
		for i := range results {
			if results[i].Err == nil && results[i].Latency > factor*calls[i].Target {
				w += results[i].Service
			}
		}
		return w
	}

	classOnly := &Group{Replicas: 1, Pipelines: 2, Resil: resil.Policy{MaxQueue: 16}}
	calls := mk()
	baseResults, baseStats, _, err := classOnly.Replay(calls)
	if err != nil {
		t.Fatal(err)
	}
	if baseStats.DeadlineShed != 0 {
		t.Fatalf("deadline sheds without a DeadlineFactor: %d", baseStats.DeadlineShed)
	}

	dl := &Group{Replicas: 1, Pipelines: 2, Resil: resil.Policy{MaxQueue: 16, DeadlineFactor: 2}}
	dlResults, dlStats, _, err := dl.Replay(mk())
	if err != nil {
		t.Fatal(err)
	}
	if dlStats.DeadlineShed == 0 {
		t.Fatal("no deadline sheds under sustained overload with factor 2")
	}
	if dlStats.DeadlineShed > dlStats.Shed {
		t.Fatalf("DeadlineShed %d exceeds Shed %d", dlStats.DeadlineShed, dlStats.Shed)
	}
	n := 0
	for i := range dlResults {
		if errors.Is(dlResults[i].Err, resil.ErrDeadlineShed) {
			n++
			if dlResults[i].Service != 0 || dlResults[i].Pipeline != -1 {
				t.Fatalf("deadline-shed call %d consumed service", i)
			}
		}
	}
	if n != dlStats.DeadlineShed {
		t.Fatalf("ErrDeadlineShed results %d != DeadlineShed %d", n, dlStats.DeadlineShed)
	}
	// The policy's point: hopeless work never occupies a pipeline, so the
	// cycles burned on calls that still blow their deadline strictly drop.
	if bw, dw := wasted(calls, baseResults, 2), wasted(mk(), dlResults, 2); dw >= bw {
		t.Fatalf("deadline shedding did not reduce wasted cycles: %v -> %v", bw, dw)
	}

	// Factor zero ignores targets entirely — bit-identical to the baseline.
	off := &Group{Replicas: 1, Pipelines: 2, Resil: resil.Policy{MaxQueue: 16}}
	offResults, offStats, _, err := off.Replay(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(offResults, baseResults) || offStats != baseStats {
		t.Fatal("targets without a factor perturbed the replay")
	}
}
