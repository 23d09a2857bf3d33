package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
	"cdpu/internal/resil"
	"cdpu/internal/snappy"
)

func makeJobs(t *testing.T, n int, gapCycles float64) ([]Job, [][]byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	jobs := make([]Job, n)
	payloads := make([][]byte, n)
	at := 0.0
	for i := range jobs {
		data := corpus.Generate(corpus.JSON, 8<<10+rng.Intn(32<<10), int64(i))
		jobs[i] = Job{Arrival: at}
		payloads[i] = snappy.Encode(data)
		at += gapCycles * (0.5 + rng.Float64())
	}
	return jobs, payloads
}

// run services jobs FCFS across d's pipelines: each payload's Exec gives its
// job's service cycles, and ReplayPolicy under the zero policy queues them.
func run(d *Device, jobs []Job, payloads [][]byte) ([]JobResult, DeviceStats, error) {
	service := make([]float64, len(payloads))
	for i, p := range payloads {
		res, err := d.Exec(p)
		if err != nil {
			return nil, DeviceStats{}, err
		}
		service[i] = res.Cycles
	}
	return d.ReplayPolicy(jobs, service, nil, nil, resil.Policy{})
}

func TestDeviceSinglePipelineMatchesInstance(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Huge gaps: no queueing; latency == service.
	jobs, payloads := makeJobs(t, 20, 1e9)
	results, stats, err := run(d, jobs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Queue != 0 {
			t.Fatalf("job %d queued %f cycles under no load", i, r.Queue)
		}
		if r.Latency != r.Service {
			t.Fatalf("job %d latency != service", i)
		}
	}
	if stats.Utilization > 0.01 {
		t.Errorf("idle device utilization = %f", stats.Utilization)
	}
}

func TestDeviceQueueingUnderOverload(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// All jobs arrive at once: queue grows linearly.
	jobs, payloads := makeJobs(t, 30, 0)
	results, stats, err := run(d, jobs, payloads)
	if err != nil {
		t.Fatal(err)
	}
	if results[len(results)-1].Queue <= results[1].Queue {
		t.Error("queueing did not grow under burst load")
	}
	if stats.Utilization < 0.99 {
		t.Errorf("burst utilization = %f", stats.Utilization)
	}
	if stats.P99Latency < stats.P50Latency {
		t.Error("latency percentiles inverted")
	}
}

func TestMorePipelinesCutLatencyUnderLoad(t *testing.T) {
	jobs, payloads := makeJobs(t, 60, 2000) // arrivals faster than one pipeline drains
	var prevP99 float64
	for i, pipes := range []int{1, 2, 4} {
		d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, pipes)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := run(d, jobs, payloads)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && stats.P99Latency > prevP99 {
			t.Errorf("%d pipelines has worse p99 (%f) than fewer (%f)", pipes, stats.P99Latency, prevP99)
		}
		prevP99 = stats.P99Latency
	}
}

func TestDeviceAreaSharesInterface(t *testing.T) {
	one, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	four, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a1 := one.Area().Total()
	a4 := four.Area().Total()
	if a4 <= a1 || a4 >= 4*a1 {
		t.Errorf("4-pipeline area %.3f not in (%.3f, %.3f): interface should be shared", a4, a1, 4*a1)
	}
}

func TestDeviceCompressionDirection(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.ZStd, Op: comp.Compress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	data := corpus.Generate(corpus.Log, 64<<10, 9)
	res, err := d.Exec(data)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputBytes >= len(data) {
		t.Error("compression device did not compress")
	}
}

func TestDeviceValidation(t *testing.T) {
	if _, err := NewDevice(Config{Algo: comp.Snappy}, 0); err == nil {
		t.Error("0 pipelines accepted")
	}
	if _, err := NewDevice(Config{Algo: comp.Snappy}, 100); err == nil {
		t.Error("100 pipelines accepted")
	}
	if _, err := NewDevice(Config{Algo: comp.Flate}, 1); err == nil {
		t.Error("unsupported algorithm accepted")
	}
}

func TestDeviceRejectsUnsortedJobs(t *testing.T) {
	d, _ := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	jobs := []Job{{Arrival: 100}, {Arrival: 50}}
	payloads := [][]byte{snappy.Encode([]byte("abcd")), snappy.Encode([]byte("efgh"))}
	if _, _, err := run(d, jobs, payloads); err == nil {
		t.Error("unsorted jobs accepted")
	}
}

func TestDeviceEmptyBatch(t *testing.T) {
	d, _ := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	results, stats, err := run(d, nil, nil)
	if err != nil || results != nil || stats.Jobs != 0 {
		t.Errorf("empty batch: %v %v %+v", results, err, stats)
	}
}

func TestReplayRejectsInvalidService(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	jobs := []Job{{Arrival: 0}, {Arrival: 10}, {Arrival: 20}}
	for _, bad := range [][]float64{
		{100, math.NaN(), 100},
		{100, -1, 100},
		{100, math.Inf(1), 100},
		{math.Inf(-1), 100, 100},
	} {
		if _, _, err := d.ReplayPolicy(jobs, bad, nil, nil, resil.Policy{}); err == nil {
			t.Errorf("ReplayPolicy accepted service %v", bad)
		}
	}
	// Zero service is legitimate (a degenerate but finite call).
	results, stats, err := d.ReplayPolicy(jobs, []float64{100, 0, 100}, nil, nil, resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Latency != 0 || math.IsNaN(stats.MeanLatency) {
		t.Errorf("zero-service replay wrong: %+v %+v", results[1], stats)
	}
}

func TestReplayReportsStartAndPipeline(t *testing.T) {
	d, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Two simultaneous arrivals fill both pipelines; the third waits for the
	// earliest-free one.
	jobs := []Job{{Arrival: 0}, {Arrival: 0}, {Arrival: 0}}
	results, _, err := d.ReplayPolicy(jobs, []float64{100, 50, 10}, nil, nil, resil.Policy{})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Pipeline == results[1].Pipeline {
		t.Errorf("simultaneous jobs share pipeline %d", results[0].Pipeline)
	}
	if results[2].Pipeline != results[1].Pipeline || results[2].Start != 50 {
		t.Errorf("third job = %+v, want start 50 on pipeline %d", results[2], results[1].Pipeline)
	}
	for i, r := range results {
		if r.Start != jobs[i].Arrival+r.Queue {
			t.Errorf("job %d: Start %v != Arrival+Queue %v", i, r.Start, jobs[i].Arrival+r.Queue)
		}
	}
}

// TestExecSizeOnlyMatchesExec holds a compression device's size-only exec to
// Exec: on both codecs, every placement, every corpus kind and size, traced or
// not, healthy, under a memory fault and under a watchdog-tripping latency
// spike, the two calls yield the same Result bit for bit but for Output, which
// the size-only call leaves nil, or the same DeviceError. A decompression
// device refuses the call.
func TestExecSizeOnlyMatchesExec(t *testing.T) {
	injectors := []struct {
		name string
		fi   memsys.FaultInjector
	}{
		{"healthy", nil},
		{"mem-fault", fault.Plan{ErrorEvery: 1}},
		{"watchdog", fault.Plan{SpikeEvery: 1, SpikeCycles: 1e12}},
	}
	payloads := make(map[corpus.Kind][][]byte)
	for _, kind := range corpus.Kinds {
		for _, size := range []int{0, 64, 4 << 10, 1 << 20} {
			if raceEnabled && size == 1<<20 {
				continue
			}
			payloads[kind] = append(payloads[kind], corpus.Generate(kind, size, int64(size)+5))
		}
	}
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, placement := range memsys.Placements {
			for _, traced := range []bool{false, true} {
				d, err := NewDevice(Config{Algo: algo, Op: comp.Compress, Placement: placement}, 1)
				if err != nil {
					t.Fatal(err)
				}
				d.SetTracing(traced)
				d.SetResultReuse(!traced) // each Result is rendered before the device's next call
				for _, inj := range injectors {
					d.SetFaultInjector(inj.fi)
					for _, kind := range corpus.Kinds {
						for _, payload := range payloads[kind] {
							name := fmt.Sprintf("%v/%v/traced=%v/%s/%v/%d", algo, placement, traced, inj.name, kind, len(payload))
							want := outcome(d.Exec(payload))
							res, err := d.ExecSizeOnly(payload)
							if got := outcome(res, err); got != want {
								t.Fatalf("%s: size-only exec differs from Exec:\n got %s want %s", name, got, want)
							}
							if err == nil && res.Output != nil {
								t.Fatalf("%s: size-only exec returned %d output bytes", name, len(res.Output))
							}
						}
					}
				}
			}
		}
	}
	dec, err := NewDevice(Config{Algo: comp.Snappy, Op: comp.Decompress}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := dec.ExecSizeOnly(snappy.Encode([]byte("abc"))); err == nil {
		t.Errorf("a decompression device ran a size-only exec: %+v", res)
	}
}
