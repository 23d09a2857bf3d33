package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/resil"
)

func replayFixture(t *testing.T, pipes, n int, gap float64) (*Device, []Job, []float64) {
	t.Helper()
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, pipes)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	jobs := make([]Job, n)
	service := make([]float64, n)
	at := 0.0
	for i := range jobs {
		jobs[i] = Job{Arrival: at}
		service[i] = 500 + 4000*rng.Float64()
		at += gap * rng.Float64()
	}
	return d, jobs, service
}

// TestReplayPolicyZeroMatchesReplay pins that the zero policy with nil
// post/faults is arithmetically identical to a plain FCFS replay — the
// earliest-free pipeline, the lowest index on a tie, computed here
// independently — and that all-zero post and fault slices change nothing: the
// guarantee the sharded replay relies on to keep existing Reports byte-stable.
func TestReplayPolicyZeroMatchesReplay(t *testing.T) {
	const pipes = 3
	d, jobs, service := replayFixture(t, pipes, 200, 1500)
	got, gotStats, err := d.ReplayPolicy(jobs, service, nil, nil, resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	free := make([]float64, pipes)
	busy, last := 0.0, 0.0
	for i, job := range jobs {
		p := 0
		for k := 1; k < pipes; k++ {
			if free[k] < free[p] {
				p = k
			}
		}
		start := math.Max(job.Arrival, free[p])
		free[p] = start + service[i]
		busy, last = busy+service[i], math.Max(last, free[p])
		want := JobResult{Queue: start - job.Arrival, Service: service[i], Latency: free[p] - job.Arrival, Start: start, Pipeline: p}
		if got[i] != want {
			t.Fatalf("job %d diverged from FCFS:\n got %+v\nwant %+v", i, got[i], want)
		}
	}
	makespan := last - jobs[0].Arrival
	if gotStats.Jobs != len(jobs) || gotStats.Makespan != makespan || gotStats.Utilization != busy/(pipes*makespan) {
		t.Errorf("stats %+v, want %d jobs over makespan %v at utilization %v", gotStats, len(jobs), makespan, busy/(pipes*makespan))
	}
	zeroed, zeroedStats, err := d.ReplayPolicy(jobs, service, make([]float64, len(jobs)), make([]int, len(jobs)), resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if zeroedStats != gotStats {
		t.Fatalf("zero post and faults moved the stats:\n got %+v\nwant %+v", zeroedStats, gotStats)
	}
	for i := range got {
		if zeroed[i] != got[i] {
			t.Fatalf("job %d moved under zero post and faults:\n got %+v\nwant %+v", i, zeroed[i], got[i])
		}
	}
}

// TestReplayPolicySheds pins admission control: a burst beyond MaxQueue
// waiting jobs is shed with zero service and resil.ErrShed, and the latency
// statistics cover served jobs only.
func TestReplayPolicySheds(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 5)
	service := []float64{100, 100, 100, 100, 100}
	pol := resil.Policy{MaxQueue: 1}
	results, stats, err := d.ReplayPolicy(jobs, service, nil, nil, pol)
	if err != nil {
		t.Fatal(err)
	}
	// Job 0 starts immediately (in service, not waiting), job 1 waits; jobs
	// 2-4 find the single queue slot full and are shed.
	for i, r := range results[:2] {
		if r.Err != nil {
			t.Fatalf("job %d shed with open queue: %v", i, r.Err)
		}
	}
	for i, r := range results[2:] {
		if !errors.Is(r.Err, resil.ErrShed) {
			t.Fatalf("job %d not shed: %+v", i+2, r)
		}
		if r.Service != 0 || r.Latency != 0 || r.Pipeline != -1 {
			t.Fatalf("shed job %d charged work: %+v", i+2, r)
		}
	}
	if stats.Shed != 3 {
		t.Errorf("stats.Shed = %d, want 3", stats.Shed)
	}
	if stats.Jobs != 5 {
		t.Errorf("stats.Jobs = %d, want 5", stats.Jobs)
	}
	// Served latencies are 100 and 200; shed jobs must not drag the mean.
	if stats.MeanLatency != 150 {
		t.Errorf("mean latency %v includes shed jobs (want 150)", stats.MeanLatency)
	}
	if stats.P99Latency != 200 {
		t.Errorf("p99 latency %v, want 200", stats.P99Latency)
	}
}

// TestReplayPolicyAllShedIsFinite guards the served==0 division path.
func TestReplayPolicyAllShedIsFinite(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// First job admitted, everything behind the MaxQueue=1 window shed; to
	// get *zero* served we need MaxQueue>0 with an already-full queue, which
	// cannot happen for the very first arrival — so assert the near-empty
	// case stays finite instead.
	jobs := make([]Job, 3)
	results, stats, err := d.ReplayPolicy(jobs, []float64{1e6, 1, 1}, nil, nil, resil.Policy{MaxQueue: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Shed != 1 {
		t.Fatalf("stats.Shed = %d, want 1", stats.Shed)
	}
	served := 0
	for _, r := range results {
		if r.Err == nil {
			served++
		}
	}
	if served != 2 {
		t.Fatalf("served %d jobs, want 2", served)
	}
	if stats.MeanLatency <= 0 || stats.P99Latency <= 0 {
		t.Fatalf("degenerate stats: %+v", stats)
	}
}

// TestReplayPolicyQuarantine pins that K fault events within the window
// remove the pipeline from dispatch for reset+penalty cycles, shifting
// subsequent work onto healthy pipelines.
func TestReplayPolicyQuarantine(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 6)
	service := []float64{100, 100, 100, 100, 100, 100}
	faults := []int{2, 0, 0, 0, 0, 0}
	pol := resil.Policy{
		QuarantineK:             2,
		QuarantineWindowCycles:  1e6,
		QuarantinePenaltyCycles: 1000,
	}
	results, stats, err := d.ReplayPolicy(jobs, service, nil, faults, pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantines != 1 {
		t.Fatalf("stats.Quarantines = %d, want 1", stats.Quarantines)
	}
	// Job 0 runs on pipeline 0 and quarantines it until 100+reset+1000 > 1100.
	// Job 1 takes pipeline 1 at 0; jobs 2-5 must all queue on pipeline 1
	// (its free times 100..500 stay below 1100) rather than touch the
	// quarantined pipeline 0.
	if results[0].Pipeline != 0 {
		t.Fatalf("job 0 on pipeline %d, want 0", results[0].Pipeline)
	}
	for i := 1; i < 6; i++ {
		if results[i].Pipeline != 1 {
			t.Fatalf("job %d dispatched to quarantined pipeline %d", i, results[i].Pipeline)
		}
	}
	if results[5].Start != 400 {
		t.Fatalf("job 5 start %v, want 400 (serialized on the healthy pipeline)", results[5].Start)
	}

	// Without quarantine the same faults leave both pipelines in play.
	results, stats, err = d.ReplayPolicy(jobs, service, nil, faults, resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantines != 0 {
		t.Fatalf("zero policy quarantined: %+v", stats)
	}
	if results[2].Pipeline != 0 {
		t.Fatalf("job 2 on pipeline %d without quarantine, want 0", results[2].Pipeline)
	}
}

// TestReplayPolicyQuarantineDefaultReset pins that a quarantine charges the
// device's placement-aware PipelineResetCycles.
func TestReplayPolicyQuarantineDefaultReset(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 2)
	jobs[1].Arrival = 10
	service := []float64{100, 100}
	faults := []int{1, 0}
	pol := resil.Policy{QuarantineK: 1, QuarantineWindowCycles: 1e6}
	results, _, err := d.ReplayPolicy(jobs, service, nil, faults, pol)
	if err != nil {
		t.Fatal(err)
	}
	want := 100 + d.PipelineResetCycles()
	if results[1].Start != want {
		t.Fatalf("job 1 start %v, want %v (done + reset)", results[1].Start, want)
	}
	if d.PipelineResetCycles() <= 0 {
		t.Fatal("PipelineResetCycles not positive")
	}
}

// TestReplayPolicyWindowExpiry pins that fault events age out: two faults
// farther apart than the window never reach K=2.
func TestReplayPolicyWindowExpiry(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Arrival: 0}, {Arrival: 10000}, {Arrival: 20000}}
	service := []float64{100, 100, 100}
	faults := []int{1, 1, 0}
	pol := resil.Policy{QuarantineK: 2, QuarantineWindowCycles: 500, QuarantinePenaltyCycles: 1e6}
	_, stats, err := d.ReplayPolicy(jobs, service, nil, faults, pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantines != 0 {
		t.Fatalf("expired fault events still quarantined: %+v", stats)
	}

	// Same schedule with a window that spans both events does quarantine.
	pol.QuarantineWindowCycles = 1e6
	_, stats, err = d.ReplayPolicy(jobs, service, nil, faults, pol)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Quarantines != 1 {
		t.Fatalf("spanning window did not quarantine: %+v", stats)
	}
}

// TestReplayPolicyPostLatency pins that post cycles charge the job's latency
// but not pipeline occupancy: the next job's start is unaffected.
func TestReplayPolicyPostLatency(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 2)
	service := []float64{100, 100}
	post := []float64{50, 0}
	results, _, err := d.ReplayPolicy(jobs, service, post, nil, resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Latency != 150 {
		t.Fatalf("job 0 latency %v, want 150 (service + post)", results[0].Latency)
	}
	if results[0].Service != 100 {
		t.Fatalf("job 0 service %v, want 100 (post must not inflate service)", results[0].Service)
	}
	if results[1].Start != 100 {
		t.Fatalf("job 1 start %v, want 100 (post must not occupy the pipeline)", results[1].Start)
	}
}

func TestReplayPolicyValidation(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]Job, 2)
	service := []float64{1, 1}
	if _, _, err := d.ReplayPolicy(jobs, service, []float64{1}, nil, resil.Policy{}); err == nil {
		t.Error("short post slice accepted")
	}
	if _, _, err := d.ReplayPolicy(jobs, service, nil, []int{0}, resil.Policy{}); err == nil {
		t.Error("short faults slice accepted")
	}
	if _, _, err := d.ReplayPolicy(jobs, service, []float64{-1, 0}, nil, resil.Policy{}); err == nil {
		t.Error("negative post accepted")
	}
}
