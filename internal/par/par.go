// Package par runs an indexed loop on a bounded set of goroutines and returns
// the error a serial loop would have stopped at. It is the one place the
// simulator fans work out: the replay's payload tiles, the discrete-event
// engine's partitions, the DSE scheduler's file tasks and config runs, and the
// HyperCompressBench and corpus builders all run through For, so the ordering
// argument that makes their results independent of worker count is made once.
package par

import (
	"sync"
	"sync/atomic"
)

// For calls body(w, i) once for each i in [0, n), on min(workers, n)
// goroutines; with one or none it runs inline on the caller's, as w = 0. w in
// [0, max(1, min(workers, n))) names the goroutine running the call, and no
// two calls with the same w overlap, so a caller can keep per-goroutine
// scratch in a slice of that length, indexed by w.
//
// Goroutines claim indexes in increasing order from one counter and stop
// claiming once any call has failed. Every index below a failed one was
// claimed before it and runs to completion, so the lowest failing index, which
// For returns with its error, is the one a serial loop would stop at; with no
// failure For returns (n, nil). Every goroutine has exited when For returns.
func For(n, workers int, body func(w, i int) error) (at int, err error) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := body(0, i); err != nil {
				return i, err
			}
		}
		return n, nil
	}
	l := &loop{n: n, at: n, body: body}
	l.wg.Add(workers)
	for w := range workers {
		go l.run(w)
	}
	l.wg.Wait()
	return l.at, l.err
}

// loop is one parallel For: the claim counter, the stop flag, and the lowest
// failure so far, kept in one allocation.
type loop struct {
	n      int
	body   func(w, i int) error
	next   atomic.Int64
	failed atomic.Bool
	wg     sync.WaitGroup
	mu     sync.Mutex
	at     int   // the lowest failing index so far, or n
	err    error // at's error
}

func (l *loop) run(w int) {
	defer l.wg.Done()
	for !l.failed.Load() {
		i := int(l.next.Add(1)) - 1
		if i >= l.n {
			return
		}
		if err := l.body(w, i); err != nil {
			l.mu.Lock()
			if i < l.at {
				l.at, l.err = i, err
			}
			l.mu.Unlock()
			l.failed.Store(true)
			return
		}
	}
}
