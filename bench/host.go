package main

import (
	"compress/flate"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// The development host is a small shared VM. What its neighbours do slows it
// by 10 to 35 %, in stretches that last from seconds to many minutes: the same
// sim.Run takes 1.5 s in one run and 2.1 s in the next, and no statistic over
// the reps of one run can tell a slow host from slow code. So every timed
// region is bracketed by a calibration kernel — standard-library code, which a
// change to this repository cannot speed up or slow down — and host times are
// reported at the speed of a reference host: measured seconds times hostSpeed.
// Over nine minutes of alternating reps and kernels, dividing the median rep
// by the median kernel cut the spread between 20-second windows from 10–13 %
// to 4–6 % on replay-overload, dse-sweep and codec-sw alike.

const (
	calChunks     = 24
	calChunkBytes = 256 << 10
	// calChunkSeconds is what one thread of the reference host — the
	// development VM with quiet neighbours — takes per chunk.
	calChunkSeconds = 0.0033
)

// calData is the kernel's input: pseudo-text over a fixed vocabulary, drawn
// from a fixed xorshift stream, so that every run of every commit compresses
// the same bytes.
var calData = sync.OnceValue(func() [][]byte {
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	words := make([][]byte, 1024)
	for i := range words {
		w := make([]byte, 2+next()%8)
		for j := range w {
			w[j] = 'a' + byte(next()%26)
		}
		words[i] = w
	}
	chunks := make([][]byte, calChunks)
	for i := range chunks {
		buf := make([]byte, 0, calChunkBytes+16)
		for len(buf) < calChunkBytes {
			// Squaring a uniform draw favours low indexes: some words are
			// common, most are rare, as in text.
			u := float64(next()>>11) / (1 << 53)
			buf = append(append(buf, words[int(u*u*float64(len(words)))]...), ' ')
		}
		chunks[i] = buf[:calChunkBytes]
	}
	return chunks
})

// calWriters are the kernel's compressors, one per goroutine, kept so that
// calibrating between reps does not churn the heap the reps are measured on.
var calWriters []*flate.Writer

// calibrate runs the kernel once: flate level 1 over every chunk of data, on
// threads goroutines that claim chunks one at a time, the way sim's workers
// claim tiles, so that two slow CPUs cost it what they cost a replay.
func calibrate(threads int, data [][]byte) time.Duration {
	for len(calWriters) < threads {
		// Level 1 is a valid level.
		fw, _ := flate.NewWriter(io.Discard, 1)
		calWriters = append(calWriters, fw)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < threads; g++ {
		wg.Add(1)
		go func(fw *flate.Writer) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(data) {
					return
				}
				// Writes to io.Discard cannot fail.
				fw.Reset(io.Discard)
				_, _ = fw.Write(data[i])
				_ = fw.Close()
			}
		}(calWriters[g])
	}
	wg.Wait()
	return time.Since(start)
}

// hostSpeed is one calibration point: the reference host's kernel time over
// this host's, the median of three runs (-smoke: one run over a sixth of the
// chunks). 1 is the reference host; 0.8 is a host that takes a quarter longer.
func (r *run) hostSpeed(threads int) float64 {
	data, runs := calData(), make([]float64, 3)
	if r.opt.smoke {
		data, runs = data[:calChunks/6], runs[:1]
	}
	for i := range runs {
		runs[i] = calibrate(threads, data).Seconds()
	}
	_, med, _ := quartiles(runs)
	return float64(len(data)) * calChunkSeconds / float64(threads) / med
}

// reps is the outcome of timeReps.
type reps struct {
	times   []time.Duration // per rep, as measured
	speed   float64         // the host's speed over the reps: the median of the points around them
	mallocs []float64       // per rep, heap objects allocated
}

// seconds is the median rep's time at reference speed.
func (r reps) seconds() float64 { return r.median().Seconds() * r.speed }

// median is the median rep's time as measured, leaving out stalls: reps that
// took more than twice as long as the fastest. A slow neighbour costs a third
// at most; a rep that takes several times as long (one took 19 s for 2 s of
// work) sat through a pause of the whole VM, and when that hits most reps of a
// run the plain median is the pause's length, not the work's.
func (r reps) median() time.Duration {
	fastest := slices.Min(r.times)
	var kept []float64
	for _, d := range r.times {
		if d <= 2*fastest {
			kept = append(kept, float64(d))
		}
	}
	_, med, _ := quartiles(kept)
	return time.Duration(med)
}

// perSecond turns the reps into per-rep rates of ops per second at reference
// speed.
func (r reps) perSecond(ops float64) []float64 {
	out := make([]float64, len(r.times))
	for i, d := range r.times {
		out[i] = ops / (d.Seconds() * r.speed)
	}
	return out
}

// timeReps runs rep again and again — at least minReps times and until budget
// of timed work has accumulated. Between reps, outside the timed region, it
// collects garbage and, once a second of timed work has passed since the last
// one, takes a calibration point on threads goroutines, the parallelism of the
// rep itself.
func (r *run) timeReps(threads, minReps int, budget time.Duration, rep func(i int) (time.Duration, error)) (reps, error) {
	var out reps
	var spent, calibrated time.Duration
	var ms runtime.MemStats
	points := []float64{r.hostSpeed(threads)}
	for i := 0; i < minReps || spent < budget; i++ {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		d, err := rep(i)
		if err != nil {
			return out, err
		}
		runtime.ReadMemStats(&ms)
		out.mallocs = append(out.mallocs, float64(ms.Mallocs-before))
		out.times = append(out.times, d)
		spent += d
		if last := i+1 >= minReps && spent >= budget; last || spent-calibrated >= time.Second {
			points = append(points, r.hostSpeed(threads))
			calibrated = spent
		}
	}
	_, out.speed, _ = quartiles(points)
	return out, nil
}

// timeSetup times a workload's set-up between two calibration points and
// returns its seconds at reference speed.
func (r *run) timeSetup(threads int, setup func() error) (float64, error) {
	before := r.hostSpeed(threads)
	d, err := since(setup)
	return d.Seconds() * (before + r.hostSpeed(threads)) / 2, err
}

// since times f.
func since(f func() error) (time.Duration, error) {
	t := time.Now()
	err := f()
	return time.Since(t), err
}
