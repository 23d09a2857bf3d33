package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/lz77"
	"cdpu/internal/memsys"
)

// TestTimeOfTraceMatchesPreSplitGolden runs the golden matrix the way the DSE
// scheduler does: each payload is traced once per functional key, on one
// instance, and every configuration of the matrix times that shared trace on
// an instance of its own. Results must equal the pre-split goldens — payload
// included for decompression, everything but the payload for compression,
// whose traces are size-only.
func TestTimeOfTraceMatchesPreSplitGolden(t *testing.T) {
	type traceKey struct {
		functional string
		payload    [sha256.Size]byte
	}
	traces := map[traceKey]*Trace{}
	traced := 0
	shared := func(cfg Config, payload []byte, take func() (*Trace, error)) (*Trace, error) {
		key := traceKey{cfg.FunctionalKey(), sha256.Sum256(payload)}
		if tr, ok := traces[key]; ok {
			return tr, nil
		}
		tr, err := take()
		if err == nil {
			traces[key] = tr
			traced++
		}
		return tr, err
	}
	compress := func(cfg Config, v goldenVariant, payload []byte) (*Result, error) {
		c, err := NewCompressor(cfg)
		if err != nil {
			return nil, err
		}
		tr, _ := shared(c.cfg, payload, func() (*Trace, error) { return c.Trace(payload) })
		timer := mustCompressor(t, cfg)
		timer.SetTracing(v.trace)
		timer.SetFaultInjector(v.injector)
		return timer.Time(tr)
	}
	decompress := func(cfg Config, v goldenVariant, payload []byte) (*Result, error) {
		d, err := NewDecompressor(cfg)
		if err != nil {
			return nil, err
		}
		tr, err := shared(d.cfg, payload, func() (*Trace, error) { return d.Trace(payload) })
		if err != nil {
			return nil, err
		}
		timer := mustDecompressor(t, cfg)
		timer.SetTracing(v.trace)
		timer.SetFaultInjector(v.injector)
		return timer.Time(tr)
	}
	got := goldenLines(t, compress, decompress)
	want := readGolden(t)
	if len(got) != len(want) {
		t.Fatalf("%d groups, golden has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if dropFullDigest(g) != dropFullDigest(w) {
			t.Errorf("Time(Trace(x)) differs from the pre-split golden:\n got  %s\n want %s", g, w)
		} else if g != w && !isCompressGroup(g) {
			t.Errorf("Time(Trace(x)) payload differs from the pre-split golden:\n got  %s\n want %s", g, w)
		}
	}
	// Per payload: one trace per decompression algorithm, one per compression
	// algorithm and SRAM size — not one per configuration or variant.
	if want := len(goldenInputs()) * (2 + 2*2); traced != want {
		t.Errorf("matrix took %d traces, want %d", traced, want)
	}
}

func isCompressGroup(line string) bool {
	var variant, group string
	fmt.Sscan(line, &variant, &group)
	return group == "Snappy-C" || group == "ZSTD-C"
}

// configFieldClass classifies every core.Config field as functional (part of
// FunctionalKey for a compressor) or timing-only, with a perturbation that
// changes the field to another valid value. A Config field added without a
// line here fails TestFunctionalKeyCoversConfig: an unclassified functional
// field would make the DSE scheduler share traces between configurations
// that parse differently.
var configFieldClass = map[string]struct {
	functional bool
	perturb    func(*Config)
}{
	"Algo":              {true, func(c *Config) { c.Algo = comp.ZStd }},
	"Op":                {true, func(c *Config) { c.Op = comp.Decompress }},
	"HistorySRAM":       {true, func(c *Config) { c.HistorySRAM = 4 << 10 }},
	"HashTableEntries":  {true, func(c *Config) { c.HashTableEntries = 1 << 9 }},
	"HashAssociativity": {true, func(c *Config) { c.HashAssociativity = 4 }},
	"HashFunc":          {true, func(c *Config) { c.HashFunc = lz77.HashXorShift }},
	"FSETableLog":       {true, func(c *Config) { c.FSETableLog = 7 }},
	"Placement":         {false, func(c *Config) { c.Placement = memsys.PCIeNoCache }},
	"Speculation":       {false, func(c *Config) { c.Speculation = 4 }},
	"StatsWidth":        {false, func(c *Config) { c.StatsWidth = 2 }},
	"WatchdogFactor":    {false, func(c *Config) { c.WatchdogFactor = -1 }},
}

// traceUnder takes the trace of payload on a unit of cfg (compressing it, or
// decompressing its software-compressed form, by cfg.Op).
func traceUnder(t *testing.T, cfg Config, payload []byte) *Trace {
	t.Helper()
	d, err := NewDevice(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Op == comp.Decompress {
		if payload, err = comp.CompressCall(cfg.Algo, 0, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	tr, err := d.Trace(payload)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFunctionalKeyCoversConfig is the stale-key guard of the trace memo:
// every Config field is classified; perturbing a timing-only field leaves the
// key and the trace itself unchanged, perturbing a functional field changes a
// compressor's key; a decompressor's trace depends on nothing but Algo.
func TestFunctionalKeyCoversConfig(t *testing.T) {
	payload := corpus.Generate(corpus.Log, 150<<10, 77)
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		class, ok := configFieldClass[name]
		if !ok {
			t.Errorf("Config.%s is neither in FunctionalKey nor on the timing-only list: classify it in configFieldClass", name)
			continue
		}
		for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
			for _, op := range []comp.Op{comp.Compress, comp.Decompress} {
				base := Config{Algo: algo, Op: op}
				pert := base
				class.perturb(&pert)
				if pert.Key() == base.Key() {
					if name == "Algo" && algo == comp.ZStd || name == "Op" && op == comp.Decompress {
						continue // the perturbation lands on the base value
					}
					t.Fatalf("perturbing Config.%s did not change the config", name)
				}
				functional := class.functional && (op == comp.Compress || name == "Algo" || name == "Op")
				same := pert.FunctionalKey() == base.FunctionalKey()
				switch {
				case functional && same:
					t.Errorf("%v-%v: functional field Config.%s is missing from FunctionalKey", algo, op, name)
				case !functional && !same:
					t.Errorf("%v-%v: Config.%s changes FunctionalKey but is not functional here", algo, op, name)
				case !functional:
					if a, b := traceUnder(t, base, payload), traceUnder(t, pert, payload); !reflect.DeepEqual(a, b) {
						t.Errorf("%v-%v: perturbing Config.%s changed the trace", algo, op, name)
					}
				}
			}
		}
	}
	if len(configFieldClass) != typ.NumField() {
		t.Errorf("configFieldClass lists %d fields, Config has %d", len(configFieldClass), typ.NumField())
	}
}

// TestCompressorTraceIsSizeOnly holds a compression trace to a full Compress
// of the same payload: same frame length, dictionary-stage statistics and block
// facts, for both algorithms — while the frame it discarded carries no payload,
// and the encoder is back to writing one for the instance's next Compress.
func TestCompressorTraceIsSizeOnly(t *testing.T) {
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		withheld := 0 // frames a trace discarded that are not the full frame's bytes
		for _, f := range corpus.SmallSuite() {
			name := fmt.Sprintf("%v/%s", algo, f.Name)
			tracer := mustCompressor(t, Config{Algo: algo})
			tr, err := tracer.Trace(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			full := mustCompressor(t, Config{Algo: algo})
			res, err := full.Compress(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			want := &full.scratch
			if tr.InputBytes != want.InputBytes || tr.OutputBytes != want.OutputBytes || tr.Output != nil {
				t.Errorf("%s: trace sizes (%d, %d), output %d bytes; Compress (%d, %d)", name,
					tr.InputBytes, tr.OutputBytes, len(tr.Output), want.InputBytes, want.OutputBytes)
			}
			if tr.lz != want.lz {
				t.Errorf("%s: trace lz stats %+v, Compress %+v", name, tr.lz, want.lz)
			}
			if !reflect.DeepEqual(tr.blocks, want.blocks) {
				t.Errorf("%s: trace blocks differ from Compress's", name)
			}
			if !bytes.Equal(tracer.discard, res.Output) {
				withheld++
			}
			if again, err := tracer.Compress(f.Data); err != nil || !bytes.Equal(again.Output, res.Output) {
				t.Errorf("%s: Compress after Trace does not produce the full frame (err %v)", name, err)
			}
		}
		if withheld == 0 {
			t.Errorf("%v: every traced frame carries its payload: the encoder was not size-only", algo)
		}
	}
}

// TestTimeRejectsForeignTrace pins the guard behind the memo key: a unit
// refuses a trace taken under another functional key rather than charging a
// parse it could not have produced.
func TestTimeRejectsForeignTrace(t *testing.T) {
	payload := corpus.Generate(corpus.Text, 20<<10, 5)
	tr, _ := mustCompressor(t, Config{Algo: comp.Snappy, HistorySRAM: 2 << 10}).Trace(payload)
	if _, err := mustCompressor(t, Config{Algo: comp.Snappy, HistorySRAM: 64 << 10}).Time(tr); err == nil {
		t.Error("a 64K compressor timed a trace parsed with a 2K window")
	}
	if _, err := mustCompressor(t, Config{Algo: comp.Snappy, HistorySRAM: 2 << 10, Placement: memsys.Chiplet}).Time(tr); err != nil {
		t.Errorf("same functional key, other placement: %v", err)
	}
}

// TestTimedCallSteadyStateAllocs pins the replay hot path: in reuse mode a
// timed call allocates nothing in either direction, and Device.Exec — trace
// into pipeline-owned scratch, then time it — allocates no trace per call.
// (ZStd Exec decodes through zstdlite.Inspect, which allocates per frame;
// its replay path is ExecPlanned, pinned by
// TestPlannedDecompressSteadyStateAllocs.)
func TestTimedCallSteadyStateAllocs(t *testing.T) {
	plain := corpus.Generate(corpus.Log, 64<<10, 12)
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, op := range []comp.Op{comp.Compress, comp.Decompress} {
			cfg := Config{Algo: algo, Op: op, HistorySRAM: 2 << 10}
			payload := plain
			if op == comp.Decompress {
				var err error
				if payload, err = comp.CompressCall(algo, 0, 0, plain); err != nil {
					t.Fatal(err)
				}
			}
			d, err := NewDevice(cfg, 1)
			if err != nil {
				t.Fatal(err)
			}
			d.SetResultReuse(true)
			tr, err := d.Trace(payload)
			if err != nil {
				t.Fatal(err)
			}
			calls := map[string]func() (*Result, error){
				"Time": func() (*Result, error) { return d.Time(tr) },
			}
			if !(algo == comp.ZStd && op == comp.Decompress) {
				calls["Exec"] = func() (*Result, error) { return d.Exec(payload) }
			}
			for name, call := range calls {
				run := func() {
					if _, err := call(); err != nil {
						t.Fatal(err)
					}
				}
				for i := 0; i < 3; i++ {
					run()
				}
				if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
					t.Errorf("%s %s: %v allocs/call in reuse mode, want 0", cfg.Name(), name, allocs)
				}
			}
		}
	}
}

// TestConcurrentTimingWalksShareOneTrace is the contract the DSE scheduler's
// trace memo rests on, run under the race detector by `make race`: many
// timing walks, on units of different configurations, time one shared trace
// at once; each gets exactly the serial result, and none writes to the trace.
func TestConcurrentTimingWalksShareOneTrace(t *testing.T) {
	plain := corpus.Generate(corpus.JSON, 150<<10, 21)
	for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
		for _, op := range []comp.Op{comp.Compress, comp.Decompress} {
			base := Config{Algo: algo, Op: op, HistorySRAM: 2 << 10}
			tr := traceUnder(t, base, plain)
			before := fmt.Sprintf("%+v", *tr)
			fold := tr.fold
			fold.far = slices.Clone(fold.far)
			if folded := tr.fold.commands > 0; folded != (op == comp.Decompress) {
				t.Fatalf("%s: the trace folds %d commands", base.Name(), tr.fold.commands)
			}
			if far := tr.fold.far; cap(far) != len(far) || (far == nil) != (len(far) == 0) {
				t.Fatalf("%s: the trace's far list has %d copies in a backing of %d (nil: %v), want it exactly sized and nil when empty", base.Name(), len(far), cap(far), far == nil)
			}
			var cfgs []Config
			for _, p := range memsys.Placements {
				for _, spec := range []int{4, 32} {
					c := base
					c.Placement, c.Speculation = p, spec
					cfgs = append(cfgs, c)
				}
			}
			want := make([]float64, len(cfgs))
			for i, c := range cfgs {
				d, err := NewDevice(c, 1)
				if err != nil {
					t.Fatal(err)
				}
				res, err := d.Time(tr)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = res.Cycles
			}
			var wg sync.WaitGroup
			for i, c := range cfgs {
				wg.Add(1)
				go func(i int, c Config) {
					defer wg.Done()
					d, err := NewDevice(c, 1)
					if err != nil {
						t.Error(err)
						return
					}
					d.SetResultReuse(true)
					for rep := 0; rep < 20; rep++ {
						res, err := d.Time(tr)
						if err != nil {
							t.Error(err)
							return
						}
						if res.Cycles != want[i] {
							t.Errorf("%s: concurrent walk got %v cycles, serial %v", c.Name(), res.Cycles, want[i])
							return
						}
					}
				}(i, c)
			}
			wg.Wait()
			if after := fmt.Sprintf("%+v", *tr); after != before {
				t.Errorf("%s: timing walks changed the shared trace", base.Name())
			}
			if !reflect.DeepEqual(tr.fold, fold) {
				t.Errorf("%s: timing changed the shared trace's fold: %+v, was %+v", base.Name(), tr.fold, fold)
			}
		}
	}
}
