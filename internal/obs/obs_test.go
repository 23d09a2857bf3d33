package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterConcurrentAdds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.adds")
	const workers, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Add(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Errorf("counter after reset = %d", got)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x") != r.Counter("x") {
		t.Error("counter identity not stable")
	}
	if r.Gauge("x") != r.Gauge("x") {
		t.Error("gauge identity not stable")
	}
	if r.Histogram("x") != r.Histogram("x") {
		t.Error("histogram identity not stable")
	}
}

func TestGauge(t *testing.T) {
	g := NewRegistry().Gauge("pool.workers")
	g.Set(7)
	if g.Value() != 7 {
		t.Errorf("gauge = %v", g.Value())
	}
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHistogramBinning(t *testing.T) {
	h := NewRegistry().Histogram("sizes")
	cases := []struct {
		v   int64
		bin int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1024, 10}, {1025, 11}, {1 << 62, 62}, {(1 << 62) + 1, 63},
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	if got := h.Count(); got != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", got, len(cases))
	}
	want := map[int]int64{}
	for _, c := range cases {
		want[c.bin]++
	}
	for b := 0; b < histogramBins; b++ {
		if got := h.Bin(b); got != want[b] {
			t.Errorf("bin %d = %d, want %d", b, got, want[b])
		}
	}
}

func TestSnapshotAndWriteText(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(3)
	r.Gauge("a.level").Set(1.5)
	r.Histogram("c.sizes").Observe(100)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot has %d metrics", len(snap))
	}
	// Sorted by name.
	if snap[0].Name != "a.level" || snap[1].Name != "b.count" || snap[2].Name != "c.sizes" {
		t.Errorf("snapshot order: %v %v %v", snap[0].Name, snap[1].Name, snap[2].Name)
	}
	if snap[1].Value != 3 || snap[0].Value != 1.5 || snap[2].Value != 1 {
		t.Errorf("snapshot values wrong: %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{"a.level", "b.count", "c.sizes", "count=1", "2^7:1"} {
		if !strings.Contains(text, want) {
			t.Errorf("WriteText missing %q in:\n%s", want, text)
		}
	}
	r.Reset()
	if r.Counter("b.count").Value() != 0 || r.Gauge("a.level").Value() != 0 || r.Histogram("c.sizes").Count() != 0 {
		t.Error("Reset left values behind")
	}
}

func TestTraceJSON(t *testing.T) {
	tr := NewTrace(2.0)
	tr.SetProcessName(1, "Snappy-D")
	tr.SetThreadName(1, 0, "pipe0")
	tr.AddSpan(1, 0, "lz77", 2000, 4000, 512) // 1 us start, 2 us duration at 2 GHz
	tr.AddSpan(1, 0, "stream", 0, 2000, 0)
	if tr.Len() != 2 {
		t.Fatalf("trace has %d spans", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	// 2 metadata events + 2 spans, metadata first.
	if len(file.TraceEvents) != 4 {
		t.Fatalf("got %d events", len(file.TraceEvents))
	}
	if file.TraceEvents[0].Ph != "M" || file.TraceEvents[1].Ph != "M" {
		t.Error("metadata events not first")
	}
	lz := file.TraceEvents[2]
	if lz.Name != "lz77" || lz.Ts != 1.0 || lz.Dur != 2.0 {
		t.Errorf("lz77 span = %+v, want ts=1 dur=2", lz)
	}
	if b, ok := lz.Args["bytes"].(float64); !ok || b != 512 {
		t.Errorf("lz77 span bytes = %v", lz.Args["bytes"])
	}
}
