// Package des is a partitioned discrete-event simulation core: per-partition
// event queues ordered by (time, insertion sequence), partitions advanced in
// parallel by a bounded worker pool, and deterministic epoch barriers at
// which shared resources are contended across partitions.
//
// The design follows the partition-and-synchronize move GSIM/CCSS make for
// parallel RTL simulation — advance independent partitions concurrently,
// reconcile shared sequential state at cheap deterministic barriers — and the
// cycle-accurate event-queue idiom of heo's CycleAccurateEventQueue: a binary
// min-heap keyed by event time with a monotone sequence number breaking ties
// in insertion order, so simultaneous events always replay identically.
//
// Everything here runs on the modeled clock. Determinism contract: for a
// fixed set of partitions and events, Engine.Run produces the same partition
// states and the same epoch-barrier stretch factors at any worker count,
// because epoch boundaries are pure functions of event times and all
// cross-partition aggregation happens serially in fixed partition order.
package des

// Kind classifies an event on a partition's queue.
type Kind uint8

const (
	// Arrival is a call entering the partition's queue.
	Arrival Kind = iota
	// ServiceDone marks a call's completion on the modeled clock; partitions
	// use it to attribute shared-resource demand to the epoch in which the
	// work actually finished.
	ServiceDone
)

// Event is one entry on a partition's queue. Call and X are payload fields
// interpreted by the partition: for an Arrival, Call is the global call index;
// for a ServiceDone, X carries the completed call's service cycles.
type Event struct {
	// Time is the event's position on the modeled clock, in device cycles.
	Time float64
	// Seq is the queue-assigned insertion sequence, the deterministic
	// tiebreak among same-time events.
	Seq uint64
	// Kind classifies the event.
	Kind Kind
	// Call is the integer payload (typically a global call index).
	Call int
	// X is the numeric payload (service cycles, demand bytes, ...).
	X float64
}

// Queue is a per-partition event queue: a binary min-heap ordered by
// (Time, Seq). Push assigns Seq, so events at equal times pop in insertion
// order. Not safe for concurrent use — each partition owns its queue, which
// is the point of partitioned DES.
type Queue struct {
	h   []Event
	seq uint64
}

// Push schedules an event; e.Seq is overwritten with the next insertion
// sequence.
func (q *Queue) Push(e Event) {
	e.Seq = q.seq
	q.seq++
	q.h = append(q.h, e)
	q.up(len(q.h) - 1)
}

// Peek returns the earliest event without removing it.
func (q *Queue) Peek() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	return q.h[0], true
}

// Pop removes and returns the earliest event.
func (q *Queue) Pop() (Event, bool) {
	if len(q.h) == 0 {
		return Event{}, false
	}
	top := q.h[0]
	last := len(q.h) - 1
	q.h[0] = q.h[last]
	q.h = q.h[:last]
	if last > 0 {
		q.down(0)
	}
	return top, true
}

func (q *Queue) less(i, j int) bool {
	a, b := &q.h[i], &q.h[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	return a.Seq < b.Seq
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.h[i], q.h[parent] = q.h[parent], q.h[i]
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		c := l
		if r := l + 1; r < n && q.less(r, l) {
			c = r
		}
		if !q.less(c, i) {
			return
		}
		q.h[i], q.h[c] = q.h[c], q.h[i]
		i = c
	}
}
