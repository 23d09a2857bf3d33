package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// probe records what For did with a loop of n indexes: how often each index
// ran, which goroutine names it saw, whether two calls shared a name at once,
// and how many calls were still running.
type probe struct {
	ran     []atomic.Int32
	busy    []atomic.Bool // per w: a call is running
	overlap atomic.Bool
	badW    atomic.Int64 // last out-of-range w seen, +1; 0 if none
	active  atomic.Int32
	maxW    int
}

func newProbe(n, workers int) *probe {
	maxW := max(1, min(workers, n))
	return &probe{ran: make([]atomic.Int32, max(n, 0)), busy: make([]atomic.Bool, maxW), maxW: maxW}
}

// body returns the loop body: it fails at every index in fail, with an error
// naming the index.
func (p *probe) body(fail map[int]bool) func(w, i int) error {
	return func(w, i int) error {
		p.active.Add(1)
		defer p.active.Add(-1)
		if w < 0 || w >= p.maxW {
			p.badW.Store(int64(w) + 1)
			return nil
		}
		if p.busy[w].Swap(true) {
			p.overlap.Store(true)
		}
		runtime.Gosched() // widen the window in which an overlapping call would show
		p.ran[i].Add(1)
		p.busy[w].Store(false)
		if fail[i] {
			return fmt.Errorf("index %d", i)
		}
		return nil
	}
}

// check compares one call of For against the serial loop: the returned index
// is the lowest failing one (or n), its error is that index's, every index
// below it ran exactly once and none ran twice.
func (p *probe) check(t *testing.T, n, workers int, fail map[int]bool, at int, err error) {
	t.Helper()
	want := n
	for i := 0; i < n; i++ {
		if fail[i] {
			want = i
			break
		}
	}
	if at != want {
		t.Errorf("n=%d workers=%d: at %d, want %d", n, workers, at, want)
	}
	switch {
	case want == n && err != nil:
		t.Errorf("n=%d workers=%d: error %v with no failing index", n, workers, err)
	case want < n && (err == nil || err.Error() != fmt.Sprintf("index %d", want)):
		t.Errorf("n=%d workers=%d: error %v, want index %d's", n, workers, err, want)
	}
	for i := range p.ran {
		c := p.ran[i].Load()
		if i < want && c != 1 {
			t.Errorf("n=%d workers=%d: index %d ran %d times, want once", n, workers, i, c)
		}
		if c > 1 {
			t.Errorf("n=%d workers=%d: index %d ran %d times", n, workers, i, c)
		}
	}
	if w := p.badW.Load(); w != 0 {
		t.Errorf("n=%d workers=%d: body saw w=%d, want [0, %d)", n, workers, w-1, p.maxW)
	}
	if p.overlap.Load() {
		t.Errorf("n=%d workers=%d: two calls with the same w ran at once", n, workers)
	}
	if a := p.active.Load(); a != 0 {
		t.Errorf("n=%d workers=%d: %d calls still running after For returned", n, workers, a)
	}
}

func TestForMatrix(t *testing.T) {
	for _, n := range []int{0, 1, 63, 1000} {
		for _, workers := range []int{-1, 0, 1, 2, 8, n + 5} {
			failSets := []map[int]bool{nil}
			if n > 0 {
				failSets = append(failSets,
					map[int]bool{n - 1: true},
					map[int]bool{0: true, n / 2: true},
					map[int]bool{n / 3: true, n / 2: true, n - 1: true})
			}
			for _, fail := range failSets {
				p := newProbe(n, workers)
				at, err := For(n, workers, p.body(fail))
				p.check(t, n, workers, fail, at, err)
			}
		}
	}
}

// FuzzForMatchesSerial fuzzes the failing set and the worker count: For must
// return what the serial loop returns, having run every index below it once.
func FuzzForMatchesSerial(f *testing.F) {
	f.Add(uint16(100), int8(4), []byte{50, 7})
	f.Add(uint16(1), int8(-1), []byte{0})
	f.Add(uint16(64), int8(65), []byte{})
	f.Fuzz(func(t *testing.T, n uint16, workers int8, fails []byte) {
		nn := int(n % 300)
		w := int(workers % 17) // a bounded number of goroutines
		fail := map[int]bool{}
		for k := 0; k+1 < len(fails) && nn > 0; k += 2 {
			fail[(int(fails[k])<<8|int(fails[k+1]))%nn] = true
		}
		p := newProbe(nn, w)
		at, err := For(nn, w, p.body(fail))
		p.check(t, nn, w, fail, at, err)
	})
}

func TestForStopsClaimingAfterError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		_, err := For(1000, workers, func(_, i int) error {
			ran.Add(1)
			if i == 0 {
				return errors.New("early failure")
			}
			return nil
		})
		if err == nil {
			t.Fatal("no error propagated")
		}
		// The failure at index 0 is visible almost at once; far fewer than all
		// 1000 calls should have started.
		if r := ran.Load(); r >= 1000 {
			t.Errorf("workers=%d: all %d calls ran despite an early error", workers, r)
		}
	}
}

func TestForNoGoroutineLeakOnError(t *testing.T) {
	before := runtime.NumGoroutine()
	for trial := 0; trial < 5; trial++ {
		_, _ = For(100, 4, func(_, i int) error {
			if i%10 == 0 {
				return errors.New("fail")
			}
			return nil
		})
	}
	// For waits for every goroutine it started, so the count settles back;
	// allow slack for runtime background goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}
