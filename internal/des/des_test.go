package des

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestQueueOrdersByTimeThenInsertion(t *testing.T) {
	var q Queue
	q.Push(Event{Time: 5, Kind: Arrival, Call: 0})
	q.Push(Event{Time: 1, Kind: Arrival, Call: 1})
	q.Push(Event{Time: 5, Kind: ServiceDone, Call: 2})
	q.Push(Event{Time: 3, Kind: ServiceDone, Call: 3})
	q.Push(Event{Time: 5, Kind: Arrival, Call: 4})
	want := []int{1, 3, 0, 2, 4} // time order; ties (the three t=5 events) in insertion order
	for _, w := range want {
		ev, ok := q.Pop()
		if !ok {
			t.Fatalf("queue drained early, want call %d", w)
		}
		if ev.Call != w {
			t.Fatalf("pop order: got call %d, want %d", ev.Call, w)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("queue not empty after draining")
	}
}

func TestQueueRandomizedHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue
	n := 2000
	for i := 0; i < n; i++ {
		q.Push(Event{Time: float64(rng.Intn(50)), Call: i})
	}
	prevT, prevSeq := math.Inf(-1), uint64(0)
	for i := 0; i < n; i++ {
		ev, ok := q.Pop()
		if !ok {
			t.Fatal("queue drained early")
		}
		if ev.Time < prevT || (ev.Time == prevT && ev.Seq < prevSeq) {
			t.Fatalf("heap order violated at %d: (%v,%d) after (%v,%d)", i, ev.Time, ev.Seq, prevT, prevSeq)
		}
		prevT, prevSeq = ev.Time, ev.Seq
	}
}

// countPart is a minimal arithmetic partition: each arrival's service is
// stretched by the current epoch factor, and demand is proportional to the
// work done. Good enough to pin engine determinism and the contention
// feedback loop without dragging the replay stack in.
type countPart struct {
	q       Queue
	stretch float64
	demand  Demand
	sum     float64 // order-sensitive accumulator (catches double-advance)
	steps   int
	failAt  int // step index to fail at (-1 = never)
}

func newCountPart(arrivals []float64, failAt int) *countPart {
	p := &countPart{stretch: 1, failAt: failAt}
	for i, a := range arrivals {
		p.q.Push(Event{Time: a, Kind: Arrival, Call: i, X: 100})
	}
	return p
}

func (p *countPart) NextTime() (float64, bool) {
	ev, ok := p.q.Peek()
	return ev.Time, ok
}

func (p *countPart) Advance(limit float64) error {
	for {
		ev, ok := p.q.Peek()
		if !ok || ev.Time >= limit {
			return nil
		}
		p.q.Pop()
		if p.failAt >= 0 && p.steps == p.failAt {
			return fmt.Errorf("part failed at step %d", p.steps)
		}
		svc := ev.X * p.stretch
		p.sum = p.sum*1.000001 + svc
		p.demand.StreamBytes += svc * 8
		p.demand.LinkOps++
		p.demand.BusyCycles += svc
		p.steps++
	}
}

func (p *countPart) EpochDemand() Demand {
	d := p.demand
	p.demand = Demand{}
	return d
}

func (p *countPart) SetStretch(s Stretch) { p.stretch = s.Service }

func buildParts(n, callsPer int, failAt int) []Partition {
	parts := make([]Partition, n)
	for i := range parts {
		arr := make([]float64, callsPer)
		for j := range arr {
			arr[j] = float64(j*1000 + i*7)
		}
		fa := -1
		if failAt >= 0 && i == n/2 {
			fa = failAt
		}
		parts[i] = newCountPart(arr, fa)
	}
	return parts
}

func runSums(t *testing.T, workers int, shared *Shared) []float64 {
	t.Helper()
	parts := buildParts(16, 200, -1)
	eng := Engine{Workers: workers, EpochCycles: 5000, Shared: shared, Parts: parts}
	for i, err := range eng.Run() {
		if err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	sums := make([]float64, len(parts))
	for i, p := range parts {
		sums[i] = p.(*countPart).sum
	}
	return sums
}

// TestEngineWorkerCountInvariant pins the determinism contract in both modes:
// final partition states are bit-identical at any worker count, with and
// without shared-resource contention.
func TestEngineWorkerCountInvariant(t *testing.T) {
	for _, shared := range []*Shared{nil, {StreamBytesPerCycle: 0.5, LinkOpsPerCycle: 0.001, LLCBytes: 1 << 16}} {
		want := runSums(t, 1, shared)
		for _, workers := range []int{2, 3, 8, 64} {
			got := runSums(t, workers, shared)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("shared=%v workers=%d: partition %d state %v != serial %v",
						shared != nil, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestEngineContentionStretches pins the model's direction: a fleet whose
// demand overcommits the shared fabric finishes with stretched service
// (larger accumulator), and an uncontended fleet is bit-identical to
// Shared=nil.
func TestEngineContentionStretches(t *testing.T) {
	base := runSums(t, 4, nil)
	loose := runSums(t, 4, &Shared{StreamBytesPerCycle: 1e12, LinkOpsPerCycle: 1e12, LLCBytes: 1e18})
	tight := runSums(t, 4, &Shared{StreamBytesPerCycle: 1e-3})
	for i := range base {
		if loose[i] != base[i] {
			t.Fatalf("partition %d: generous budgets changed state: %v != %v", i, loose[i], base[i])
		}
		if tight[i] <= base[i] {
			t.Fatalf("partition %d: overcommitted fabric did not stretch service: %v <= %v", i, tight[i], base[i])
		}
	}
}

// TestEngineErrorDoesNotHaltOthers mirrors the legacy reduction's error
// contract: a failing partition reports its error in its own slot while every
// other partition still runs to completion.
func TestEngineErrorDoesNotHaltOthers(t *testing.T) {
	for _, workers := range []int{1, 4} {
		parts := buildParts(9, 50, 10)
		eng := Engine{Workers: workers, Parts: parts}
		errs := eng.Run()
		for i, err := range errs {
			if i == len(parts)/2 {
				if err == nil {
					t.Fatalf("workers=%d: failing partition reported no error", workers)
				}
				continue
			}
			if err != nil {
				t.Fatalf("workers=%d: healthy partition %d errored: %v", workers, i, err)
			}
			if got, want := parts[i].(*countPart).steps, 50; got != want {
				t.Fatalf("workers=%d: partition %d ran %d steps, want %d", workers, i, got, want)
			}
		}
	}
}

// TestEngineEpochBoundariesPureInEventTimes checks barrier placement is
// derived from event times, not from EpochCycles rounding drift: a long idle
// gap between bursts is skipped in one hop rather than iterated over.
func TestEngineEpochBoundariesPureInEventTimes(t *testing.T) {
	arr := []float64{0, 10, 1e9, 1e9 + 10}
	p := newCountPart(arr, -1)
	eng := Engine{Workers: 1, EpochCycles: 100, Shared: &Shared{StreamBytesPerCycle: 1}, Parts: []Partition{p}}
	for _, err := range eng.Run() {
		if err != nil {
			t.Fatal(err)
		}
	}
	if p.steps != len(arr) {
		t.Fatalf("processed %d events, want %d", p.steps, len(arr))
	}
}
