package sim

import (
	"bytes"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/fault"
)

// TestRunWorkerCountInvariantChaos extends the worker-invariance pin to a
// stormed replay under the full recovery policy: every Report field —
// including the resilience counters (FaultedCalls, RetryAttempts,
// DegradedCalls, ShedCalls, Quarantines, GoodputBytes) — must be
// byte-identical for workers 1, 2, 4 and 8, because fault draws, mutation
// seeds and backoff jitter are all keyed on (seed, call index), never on
// which shard executes the call.
func TestRunWorkerCountInvariantChaos(t *testing.T) {
	base := Config{
		Seed: 9, Calls: 400, MaxCallBytes: 128 << 10, Pipelines: 2,
		Resilience: testPolicy(),
		Storm:      &fault.Storm{Seed: 1009, Rate: 0.05, MeanRepeats: 2},
		Workers:    1,
	}
	want, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if want.FaultedCalls == 0 || want.RetryAttempts == 0 || want.DegradedCalls == 0 {
		t.Fatalf("storm produced no recovery activity; test config too weak: %+v", want)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if *got != *want {
			t.Errorf("workers=%d: stormed report differs from serial run:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestRunGoldenReport pins the replay to exact pre-batching Report values for
// one healthy and one stormed configuration. The batched engine (column
// synthesis, planned decompression, result reuse, parallel reduction) was
// introduced under the contract that it changes no modeled arithmetic; these
// literals catch any silent drift in that contract.
func TestRunGoldenReport(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want Report
	}{
		{
			name: "healthy-500",
			cfg:  Config{Seed: 1, Calls: 500, MaxCallBytes: 256 << 10},
			want: Report{
				Calls:                 500,
				UncompressedBytes:     5695196,
				XeonCoresNeeded:       3.19652560556381,
				MeanLatencyUs:         2.2409452964036434,
				P99LatencyUs:          34.689,
				CompUtil:              0.11268901970391408,
				DecompUtil:            0.10350311863488905,
				SoftwareMeanLatencyUs: 19.280606413130435,
				AreaMM2:               6.666396800000001,
				GoodputBytes:          5695196,
			},
		},
		{
			name: "chaos-500",
			cfg: Config{
				Seed: 1, Calls: 500, MaxCallBytes: 256 << 10,
				Resilience: testPolicy(),
				Storm:      &fault.Storm{Seed: 1001, Rate: 0.02, MeanRepeats: 1},
			},
			want: Report{
				Calls:                 500,
				UncompressedBytes:     5695196,
				XeonCoresNeeded:       3.19652560556381,
				MeanLatencyUs:         3523.767196916788,
				P99LatencyUs:          7083.456698511947,
				CompUtil:              0.1768959861132642,
				DecompUtil:            0.9063193414737074,
				SoftwareMeanLatencyUs: 19.280606413130435,
				AreaMM2:               6.666396800000001,
				FaultedCalls:          8,
				RetryAttempts:         6,
				DegradedCalls:         5,
				ShedCalls:             44,
				Quarantines:           2,
				GoodputBytes:          5284236,
			},
		},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 3} {
			cfg := tc.cfg
			cfg.Workers = workers
			got, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s w=%d: %v", tc.name, workers, err)
			}
			if *got != tc.want {
				t.Errorf("%s w=%d: report drifted from golden values:\n got %+v\nwant %+v", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestShardExecSteadyStateAllocs pins the tentpole zero-alloc property: once
// a shard is warm, replaying calls through the shard's tile loop —
// payload synthesis, compressed-input synthesis, planned or parsed device
// execution, result reuse — allocates nothing per call.
func TestShardExecSteadyStateAllocs(t *testing.T) {
	cfg := Config{Seed: 21, Calls: 192, MaxCallBytes: 64 << 10}.withDefaults()
	specs, _, _ := sampleCalls(cfg)
	sh, err := newShard(cfg.Placement, false)
	if err != nil {
		t.Fatal(err)
	}
	outs := make([]execOut, len(specs))
	run := func() {
		if err := sh.execTile(specs, nil, 0, len(specs), &cfg, outs); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
		t.Errorf("steady-state shard replay: %v allocs over %d calls, want 0",
			allocs*float64(len(specs)), len(specs))
	}
}

// TestParsedFramesAreReal pins the gate on real frames: phase B builds one
// only where something reads its bytes. After its healthy execution no
// decompress-op call of at least 64 bytes may leave the shard holding a frame
// that decodes to the payload, and neither may a brownout-only re-cost or a
// transient re-cost the device recovers from, since both price the call as
// Prepare does. A bit-flip re-cost (whose mutation the device parses) and a
// re-cost the software fallback serves (whose round trip decodes the frame)
// must leave one: fault.Mutate copies, so the unmutated frame survives. The
// run must exercise all four kinds of re-cost. The frame buffer is poisoned
// before each call, because a size-only Snappy frame keeps whatever bytes lay
// under its literals.
func TestParsedFramesAreReal(t *testing.T) {
	recosts := map[string]int{"bit flip": 0, "fallback": 0, "device-recovered transient": 0, "brownout": 0}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"storm-100%", Config{
			Seed: 5, Calls: 300, MaxCallBytes: 16 << 10, Resilience: testPolicy(),
			Storm: &fault.Storm{Seed: 9, Rate: 1, MeanRepeats: 1},
		}},
		{"lifecycle", Config{
			Seed: 5, Calls: 600, MaxCallBytes: 16 << 10, Resilience: testPolicy(), Replicas: 3, Failover: clusterPolicy(),
			Lifecycle: &fault.Lifecycle{Seed: 404, Rate: 0.5, EpochCalls: 64, MeanEventCalls: 32},
		}},
	} {
		cfg := tc.cfg.withDefaults()
		if err := cfg.validate(); err != nil {
			t.Fatal(err)
		}
		specs, _, _ := sampleCalls(cfg)
		sched, _, _ := schedule(specs, &cfg)
		sh, err := newShard(cfg.Placement, false)
		if err != nil {
			t.Fatal(err)
		}
		poison := func() {
			for j := range sh.enc[:cap(sh.enc)] {
				sh.enc[:cap(sh.enc)][j] = 0xa5
			}
		}
		decodes := func(s *callSpec) (bool, error) {
			back, err := comp.DecompressCall(s.rec.Algo, sh.enc)
			return err == nil && bytes.Equal(back, sh.plain), err
		}
		healthy := 0
		for i := range specs {
			s := &specs[i]
			if s.rec.Op != comp.Decompress {
				continue
			}
			sh.plain = sh.gen.AppendGenerate(sh.plain[:0], s.kind, s.rec.UncompressedBytes, s.payloadSeed)
			poison()
			out, err := sh.execOne(s, sh.plain)
			if err != nil {
				t.Fatalf("%s: call %d: %v", tc.name, i, err)
			}
			if ok, _ := decodes(s); len(sh.plain) >= 64 {
				healthy++
				if ok {
					t.Errorf("%s: Prepare synthesized call %d (%v) in full", tc.name, i, s.rec.Algo)
				}
			}
			kind, _, stormHit := cfg.Storm.Draw(i)
			brownout := cfg.Lifecycle.AnyBrownoutRange(sched[i].inst*cfg.Replicas, cfg.Replicas, i)
			if !stormHit && !brownout {
				continue
			}
			poison()
			if err := sh.recostCall(s, i, &cfg, sh.plain, &out); err != nil {
				t.Fatalf("%s: re-costing call %d: %v", tc.name, i, err)
			}
			what, real := "brownout", false
			switch {
			case stormHit && kind == fault.StormBitFlip:
				what, real = "bit flip", true
			case out.degraded:
				what, real = "fallback", true
			case stormHit:
				what = "device-recovered transient"
			}
			ok, err := decodes(s)
			switch {
			case real && !ok:
				t.Errorf("%s: %s re-cost of call %d (%v) left no frame that decodes to the payload (%v)", tc.name, what, i, s.rec.Algo, err)
			case !real && len(sh.plain) < 64:
				continue
			case !real && ok:
				t.Errorf("%s: %s re-cost of call %d (%v) synthesized its frame in full", tc.name, what, i, s.rec.Algo)
			}
			recosts[what]++
		}
		if healthy == 0 {
			t.Errorf("%s: no healthy decompress call of at least 64 bytes; the run exercises nothing", tc.name)
		}
	}
	for what, n := range recosts {
		if n == 0 {
			t.Errorf("no %s re-cost of a decompress-op call; the run no longer exercises that kind", what)
		}
	}
}

// replayFixture prepares one warmed shard plus sampled specs and executed
// outs for the per-stage benchmarks.
type replayFixture struct {
	cfg   Config
	specs []callSpec
	sh    *shard
	outs  []execOut
}

func newReplayFixture(b *testing.B, calls int) *replayFixture {
	cfg := Config{Seed: 1, Calls: calls, MaxCallBytes: 256 << 10}.withDefaults()
	specs, _, _ := sampleCalls(cfg)
	sh, err := newShard(cfg.Placement, false)
	if err != nil {
		b.Fatal(err)
	}
	f := &replayFixture{cfg: cfg, specs: specs, sh: sh, outs: make([]execOut, len(specs))}
	if err := sh.execTile(specs, nil, 0, len(specs), &cfg, f.outs); err != nil {
		b.Fatalf("warmup: %v", err)
	}
	return f
}

func (f *replayFixture) perCall(b *testing.B) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(f.specs)), "ns/call")
}

// BenchmarkReplayShard breaks the replay into its three stages so a
// regression localizes immediately: payload synthesis alone, the device
// execution pass alone (compressed-input synthesis + planned/parsed exec on
// pre-generated payloads), and the FCFS queueing reduction alone.
func BenchmarkReplayShard(b *testing.B) {
	const calls = 512
	b.Run("synthesis-only", func(b *testing.B) {
		f := newReplayFixture(b, calls)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sh := f.sh
			for j := range f.specs {
				s := &f.specs[j]
				sh.plain = sh.gen.AppendGenerate(sh.plain[:0], s.kind, s.rec.UncompressedBytes, s.payloadSeed)
			}
		}
		f.perCall(b)
	})
	b.Run("exec-only", func(b *testing.B) {
		f := newReplayFixture(b, calls)
		sh := f.sh
		// Pre-synthesize every payload once; the loop then measures only the
		// compressed-input synthesis and device execution.
		var arena []byte
		offs := []int{0}
		for j := range f.specs {
			s := &f.specs[j]
			arena = sh.gen.AppendGenerate(arena, s.kind, s.rec.UncompressedBytes, s.payloadSeed)
			offs = append(offs, len(arena))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range f.specs {
				out, err := sh.execOne(&f.specs[j], arena[offs[j]:offs[j+1]])
				if err != nil {
					b.Fatal(err)
				}
				f.outs[j] = out
			}
		}
		f.perCall(b)
	})
	b.Run("reduction-only", func(b *testing.B) {
		f := newReplayFixture(b, calls)
		perDev := make([][]int, numDevices)
		for i, s := range f.specs {
			perDev[s.dev] = append(perDev[s.dev], i)
		}
		sched, _, _ := schedule(f.specs, &f.cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := range perDev {
				red := reduceDevice(d, perDev[d], sched, f.outs, &f.cfg, false)
				if red.err != nil {
					b.Fatal(red.err)
				}
			}
		}
		f.perCall(b)
	})
}
