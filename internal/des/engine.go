package des

import (
	"math"
	"sync"
	"sync/atomic"
)

// Demand is the shared-resource demand one partition accumulated over one
// epoch. The fields are the three fleet-shared resources every CDPU
// integration rides: the memory fabric moving (de)compressed streams, the
// host link carrying doorbells and descriptors, and the last-level cache the
// streams sweep through.
type Demand struct {
	// StreamBytes is bytes moved through the shared memory fabric.
	StreamBytes float64
	// LinkOps is doorbell/descriptor operations on the shared host link.
	LinkOps float64
	// BusyCycles is pipeline-busy cycles (an LLC-pressure proxy: busier
	// pipelines keep more stream footprint resident). No stretch reads it;
	// it stays only because bench/shadow.go still writes it.
	BusyCycles float64
}

// Add accumulates d2 into d.
func (d *Demand) Add(d2 Demand) {
	d.StreamBytes += d2.StreamBytes
	d.LinkOps += d2.LinkOps
	d.BusyCycles += d2.BusyCycles
}

// Stretch is the contention factor an epoch barrier hands back to every
// partition: service times of work starting in the next epoch are multiplied
// by Service (>= 1). Scale 1 means the shared resources kept up.
type Stretch struct {
	Service float64
}

// Shared configures the fleet-shared resources contended at epoch barriers.
// Nil Shared means partitions are fully independent (the per-device model,
// and the mode in which reports are byte-identical to a batch pass over each
// partition's calls). The model is first-order and deliberately simple:
// each epoch's aggregate demand is compared against each resource's budget
// over the epoch, and the worst overcommit ratio becomes the next epoch's
// service stretch. It is deterministic by construction — demand is summed in
// fixed partition order at a barrier — and conservative: contention observed
// in epoch k slows epoch k+1, the standard one-epoch-lag closure of
// partitioned conservative DES.
type Shared struct {
	// StreamBytesPerCycle is the fabric's aggregate bandwidth budget across
	// all partitions (bytes per modeled cycle). 0 = unlimited.
	StreamBytesPerCycle float64
	// LinkOpsPerCycle is the host link's aggregate doorbell/descriptor budget
	// (operations per modeled cycle). 0 = unlimited.
	LinkOpsPerCycle float64
	// LLCBytes is the shared last-level cache capacity. When an epoch's
	// streamed footprint exceeds it, the spill fraction stretches service at
	// llcMissStretch per spilled multiple. 0 = unlimited.
	LLCBytes float64
}

// llcMissStretch is the extra service stretch per spilled LLC multiple.
const llcMissStretch = 0.5

// stretch derives the next epoch's stretch from one epoch's aggregate demand.
func (s *Shared) stretch(d Demand, epochCycles float64) Stretch {
	f := 1.0
	if s.StreamBytesPerCycle > 0 {
		if r := d.StreamBytes / (s.StreamBytesPerCycle * epochCycles); r > f {
			f = r
		}
	}
	if s.LinkOpsPerCycle > 0 {
		if r := d.LinkOps / (s.LinkOpsPerCycle * epochCycles); r > f {
			f = r
		}
	}
	if s.LLCBytes > 0 && d.StreamBytes > s.LLCBytes {
		if r := 1 + llcMissStretch*(d.StreamBytes/s.LLCBytes-1); r > f {
			f = r
		}
	}
	return Stretch{Service: f}
}

// Partition is one independently advanceable slice of the simulation — in the
// replay engine, one device instance (or one replica group). Engine calls are
// sequenced so that Advance runs concurrently across partitions but
// EpochDemand/SetStretch only ever run at barriers, single-threaded.
type Partition interface {
	// NextTime returns the earliest pending event time, or false when the
	// partition is drained.
	NextTime() (float64, bool)
	// Advance processes every pending event with Time < limit (all events
	// when limit is +Inf). On error the partition stops; Engine will not
	// advance it again.
	Advance(limit float64) error
	// EpochDemand returns and resets the shared-resource demand accumulated
	// since the previous barrier.
	EpochDemand() Demand
	// SetStretch installs the contention stretch applied to work starting in
	// the next epoch.
	SetStretch(s Stretch)
}

// DefaultEpochCycles is the epoch-barrier spacing when the engine's
// EpochCycles is zero: long enough that barrier overhead vanishes against
// per-call work, short enough that the one-epoch contention lag stays small
// next to a replay's makespan.
const DefaultEpochCycles = 1 << 20

// Engine advances a set of partitions to completion. Without Shared the
// partitions are independent and each is advanced start-to-finish in one
// parallel pass (no barriers — maximum scaling). With Shared the engine runs
// the epoch loop: advance every live partition to the epoch boundary in
// parallel, barrier, aggregate demand in fixed partition order, hand the
// resulting stretch back, repeat.
type Engine struct {
	// Workers bounds the worker pool (0 = 1; it never pays to exceed the
	// partition count, and the pool claims partitions atomically so any
	// Workers value yields identical results).
	Workers int
	// EpochCycles is the barrier spacing on the modeled clock (0 =
	// DefaultEpochCycles). Only meaningful with Shared set.
	EpochCycles float64
	// Shared configures cross-partition resource contention (nil = none).
	Shared *Shared
	// Parts is the partition set; index order is the deterministic
	// aggregation and error-reporting order.
	Parts []Partition
}

// Run advances every partition until drained or failed and returns one error
// slot per partition (all-nil on success). A failing partition does not halt
// the others — every partition runs to its own completion or first error, and
// the caller merges errors in its own order (the replay layer picks the lowest
// global call index).
func (e *Engine) Run() []error {
	errs := make([]error, len(e.Parts))
	if len(e.Parts) == 0 {
		return errs
	}
	if e.Shared == nil {
		e.sweep(errs, math.Inf(1), nil)
		return errs
	}
	epoch := e.EpochCycles
	if epoch <= 0 {
		epoch = DefaultEpochCycles
	}
	live := make([]bool, len(e.Parts))
	for i := range live {
		live[i] = true
	}
	for {
		// Earliest pending event across live partitions, scanned serially in
		// fixed order: the epoch boundary is a pure function of event times,
		// never of worker scheduling.
		t := math.Inf(1)
		any := false
		for i, p := range e.Parts {
			if !live[i] || errs[i] != nil {
				continue
			}
			if nt, ok := p.NextTime(); ok {
				any = true
				if nt < t {
					t = nt
				}
			} else {
				live[i] = false
			}
		}
		if !any {
			return errs
		}
		e.sweep(errs, t+epoch, live)
		// Barrier: aggregate the epoch's demand in partition order and hand
		// every partition the same stretch for the next epoch.
		var d Demand
		for i, p := range e.Parts {
			if errs[i] != nil {
				continue
			}
			d.Add(p.EpochDemand())
		}
		st := e.Shared.stretch(d, epoch)
		for i, p := range e.Parts {
			if errs[i] != nil {
				continue
			}
			p.SetStretch(st)
		}
	}
}

// sweep advances every live, unerrored partition to limit using the worker
// pool, returning after all have finished (the barrier).
func (e *Engine) sweep(errs []error, limit float64, live []bool) {
	workers := max(1, e.Workers)
	if workers > len(e.Parts) {
		workers = len(e.Parts)
	}
	if workers == 1 {
		for i, p := range e.Parts {
			if errs[i] != nil || (live != nil && !live[i]) {
				continue
			}
			errs[i] = p.Advance(limit)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(e.Parts) {
					return
				}
				if errs[i] != nil || (live != nil && !live[i]) {
					continue
				}
				errs[i] = e.Parts[i].Advance(limit)
			}
		}()
	}
	wg.Wait()
}
