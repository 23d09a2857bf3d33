package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside that layer.
// A replayed span is a separate call on its parent's input standing in for
// work the parent did internally: it starts after its parent ended, and its
// duration is subtracted from the parent's self time.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Call     int    `json:"call"`   // shared by every span of one call; -1 outside any call
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	Bytes    int    `json:"bytes"`
	Replayed bool   `json:"replayed,omitempty"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (ids start at 1, so 0 can mean "no
// parent"). A replayed child is opened like any other span, after its parent
// has ended.
func (t *tracer) begin(parent, call int, layer, name string, replayed bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Call: call,
		Layer: layer, Name: name, Replayed: replayed,
	})
	s := &t.spans[len(t.spans)-1]
	s.StartNs = int64(time.Since(t.t0))
	return s.ID
}

func (t *tracer) end(id, bytes int) {
	now := int64(time.Since(t.t0))
	s := &t.spans[id-1]
	s.EndNs, s.Bytes = now, bytes
}

func (t *tracer) dur(id int) time.Duration {
	s := &t.spans[id-1]
	return time.Duration(s.EndNs - s.StartNs)
}

// layerTotals is the generic four of one layer.
type layerTotals struct {
	ops   int
	bytes int
	busy  time.Duration // summed self time
}

// selfTimes returns every span's self time: its duration minus the durations
// of its direct children, floored at zero (a replayed child is a second
// execution and can run longer than the share its parent spent on that work).
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i := range t.spans {
		self[i] = time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p != 0 {
			self[p-1] -= time.Duration(t.spans[i].EndNs - t.spans[i].StartNs)
		}
	}
	for i := range self {
		self[i] = max(self[i], 0)
	}
	return self
}

// byLayer sums ops, bytes and self time per layer. The grouping "call" span
// belongs to no layer and is skipped.
func (t *tracer) byLayer() map[string]*layerTotals {
	self := t.selfTimes()
	out := map[string]*layerTotals{}
	for i := range t.spans {
		s := &t.spans[i]
		if s.Layer == "" {
			continue
		}
		lt := out[s.Layer]
		if lt == nil {
			lt = &layerTotals{}
			out[s.Layer] = lt
		}
		lt.ops++
		lt.bytes += s.Bytes
		lt.busy += self[i]
	}
	return out
}

// rate sums duration, bytes and count over the spans called name that keep
// returns true for (nil keeps all).
func (t *tracer) rate(name string, keep func(*span) bool) (d time.Duration, bytes, n int) {
	for i := range t.spans {
		s := &t.spans[i]
		if s.Name != name || (keep != nil && !keep(s)) {
			continue
		}
		d += time.Duration(s.EndNs - s.StartNs)
		bytes += s.Bytes
		n++
	}
	return d, bytes, n
}

// appendSpans appends the spans to path, one JSON object per line, each
// tagged with its workload.
func (t *tracer) appendSpans(path, workload string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Workload string `json:"workload"`
		span
	}
	for i := range t.spans {
		if err := enc.Encode(line{workload, t.spans[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
