// Package obs is the repo's observability layer: a unified metrics registry
// (counters, gauges, log2 histograms — zero-allocation on the hot path and
// striped for the sharded replay pool) and a structured event tracer that
// exports per-block pipeline timelines as Chrome trace-event JSON.
//
// The instruments absorb the ad-hoc stats that grew per package (zstdlite's
// decode-table cache counters, exp's run-cache stats, the sim pool's shape)
// and add the cross-cutting ones a serving deployment needs: bytes in/out per
// placement, fault injections, watchdog trips. Hot paths resolve their
// instruments once into package-level variables; after that an update is a
// single striped atomic add, so enabling metrics cannot perturb the timing
// model or the replay's determinism.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// counterShards stripes each counter so replay workers on different cores
// don't serialize on one cache line. Must be a power of two.
const counterShards = 8

// counterCell pads each stripe to a cache line to prevent false sharing.
type counterCell struct {
	n atomic.Int64
	_ [56]byte
}

// Counter is a monotonically increasing metric. Add is allocation-free and
// safe for concurrent use.
type Counter struct {
	name   string
	shards [counterShards]counterCell
}

// Add increments the counter by n. The stripe is picked from the caller's
// stack address — distinct goroutines land on distinct stacks, which spreads
// concurrent writers without needing an explicit worker identity.
func (c *Counter) Add(n int64) {
	var probe byte
	c.shards[(uintptr(unsafe.Pointer(&probe))>>10)&(counterShards-1)].n.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the counter's current total across stripes.
func (c *Counter) Value() int64 {
	var total int64
	for i := range c.shards {
		total += c.shards[i].n.Load()
	}
	return total
}

// Reset zeroes the counter (test isolation and explicit cache resets).
func (c *Counter) Reset() {
	for i := range c.shards {
		c.shards[i].n.Store(0)
	}
}

// Gauge is a last-value metric (pool sizes, configuration knobs). Set and
// Value are allocation-free and safe for concurrent use.
type Gauge struct {
	name string
	bits atomic.Uint64
}

// Set records the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the last value Set.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histogramBins covers every ceil(log2) bin an int64 can land in, plus bin 0.
const histogramBins = 65

// Histogram counts observations into ceil(log2) bins — bin 0 holds values
// <= 1 — matching the log2 axes the paper uses for every size distribution.
// Observe is allocation-free and safe for concurrent use.
type Histogram struct {
	name string
	bins [histogramBins]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	b := 0
	if v > 1 {
		b = bits.Len64(uint64(v - 1)) // ceil(log2 v), overflow-safe for any int64
	}
	h.bins[b].Add(1)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var total int64
	for i := range h.bins {
		total += h.bins[i].Load()
	}
	return total
}

// Bin returns the observation count of one ceil(log2) bin.
func (h *Histogram) Bin(i int) int64 { return h.bins[i].Load() }

// Reset zeroes every bin.
func (h *Histogram) Reset() {
	for i := range h.bins {
		h.bins[i].Store(0)
	}
}

// Registry owns a namespace of instruments. Lookup takes a mutex and may
// allocate; hot paths resolve their instruments once and then touch only
// atomics. The same name always returns the same instrument, so independent
// packages can share a metric by name.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every package's instruments
// register into.
func Default() *Registry { return defaultRegistry }

// Counter returns the registry's counter of the given name, creating it on
// first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the registry's gauge of the given name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the registry's histogram of the given name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{name: name}
		r.hists[name] = h
	}
	return h
}

// Metric is one instrument's snapshot.
type Metric struct {
	Name  string
	Kind  string  // "counter", "gauge" or "histogram"
	Value float64 // counter total, gauge value, or histogram observation count
	// Bins holds a histogram's non-empty ceil(log2) bins; nil otherwise.
	Bins map[int]int64
}

// Snapshot returns every instrument's current value, sorted by name (kind
// breaks ties, so a counter and gauge sharing a name order deterministically).
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	out := make([]Metric, 0, len(r.counters)+len(r.gauges)+len(r.hists))
	for _, c := range r.counters {
		out = append(out, Metric{Name: c.name, Kind: "counter", Value: float64(c.Value())})
	}
	for _, g := range r.gauges {
		out = append(out, Metric{Name: g.name, Kind: "gauge", Value: g.Value()})
	}
	for _, h := range r.hists {
		m := Metric{Name: h.name, Kind: "histogram", Value: float64(h.Count()), Bins: map[int]int64{}}
		for i := 0; i < histogramBins; i++ {
			if n := h.Bin(i); n != 0 {
				m.Bins[i] = n
			}
		}
		out = append(out, m)
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteText renders the snapshot one instrument per line, sorted by name —
// the format `cdpubench -metrics` and `fleetsim -metrics` dump.
func (r *Registry) WriteText(w io.Writer) error {
	for _, m := range r.Snapshot() {
		var err error
		switch m.Kind {
		case "histogram":
			_, err = fmt.Fprintf(w, "%-40s count=%.0f", m.Name, m.Value)
			if err == nil {
				bins := make([]int, 0, len(m.Bins))
				for b := range m.Bins {
					bins = append(bins, b)
				}
				sort.Ints(bins)
				for _, b := range bins {
					if _, err = fmt.Fprintf(w, " 2^%d:%d", b, m.Bins[b]); err != nil {
						break
					}
				}
				if err == nil {
					_, err = fmt.Fprintln(w)
				}
			}
		default:
			_, err = fmt.Fprintf(w, "%-40s %g\n", m.Name, m.Value)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// Reset zeroes every registered instrument (test isolation; instruments stay
// registered and pointers stay valid).
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.Reset()
	}
	for _, g := range r.gauges {
		g.Set(0)
	}
	for _, h := range r.hists {
		h.Reset()
	}
}
