package core

import (
	"bufio"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"cdpu/internal/comp"
	"cdpu/internal/corpus"
	"cdpu/internal/fault"
	"cdpu/internal/memsys"
)

// updateGolden rewrites testdata/result_golden.txt from whatever the package
// computes today. The checked-in file was written at the commit before the
// functional/timing split, through Compress and Decompress alone, so a
// mismatch means the split moved a modeled number.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/result_golden.txt")

const goldenPath = "testdata/result_golden.txt"

// goldenInput is one payload of the differential matrix.
type goldenInput struct {
	name string
	data []byte
}

// goldenInputs covers every corpus kind, plus one payload longer than a ZStd
// block so the per-block charge loop runs more than once.
func goldenInputs() []goldenInput {
	var in []goldenInput
	for i, k := range corpus.Kinds {
		in = append(in, goldenInput{k.String(), corpus.Generate(k, 40<<10, int64(300+i))})
	}
	return append(in, goldenInput{"log-2blk", corpus.Generate(corpus.Log, 136<<10, 399)})
}

// goldenVariant is one way of running the matrix: healthy with tracing on, so
// Spans are pinned; under a fault plan that spikes, stalls and (on calls with
// enough memory events) returns an error response; and with a watchdog tight
// enough to fire on the slower placements.
type goldenVariant struct {
	name     string
	trace    bool
	injector memsys.FaultInjector
	watchdog float64
}

var goldenVariants = []goldenVariant{
	{name: "healthy", trace: true},
	{name: "faulted", injector: fault.Plan{SpikeEvery: 3, SpikeCycles: 700, StallEvery: 2, StallMSHRs: 5, ErrorEvery: 50}},
	{name: "watchdog", watchdog: 0.05},
}

// goldenConfigs is the timing matrix of one (algo, op): every placement,
// both SRAM extremes, three speculation widths.
func goldenConfigs(algo comp.Algorithm, op comp.Op, v goldenVariant) []Config {
	var out []Config
	for _, p := range memsys.Placements {
		for _, sram := range []int{2 << 10, 64 << 10} {
			for _, spec := range []int{4, 16, 32} {
				out = append(out, Config{
					Algo: algo, Op: op, Placement: p, HistorySRAM: sram,
					Speculation: spec, WatchdogFactor: v.watchdog,
				})
			}
		}
	}
	return out
}

// renderOutcome writes every field of a call's outcome a caller can read, bit
// for bit; output adds a digest of the payload.
func renderOutcome(sb *strings.Builder, res *Result, err error, output bool) {
	if err != nil {
		var derr *DeviceError
		if !errors.As(err, &derr) {
			fmt.Fprintf(sb, "error %v\n", err)
			return
		}
		fmt.Fprintf(sb, "abort %s %s %x %v\n", derr.Reason, derr.Unit, math.Float64bits(derr.Cycles), derr.Err)
		return
	}
	fmt.Fprintf(sb, "ok %d %d %d %x %x", res.InputBytes, res.OutputBytes, res.UncompressedBytes,
		math.Float64bits(res.Cycles), math.Float64bits(res.StreamCycles))
	if output {
		fmt.Fprintf(sb, " out=%x", sha256.Sum256(res.Output))
	}
	for _, b := range blockOrder {
		if v, ok := res.Blocks[b]; ok {
			fmt.Fprintf(sb, " %s=%x", b, math.Float64bits(v))
		}
	}
	if len(res.Blocks) > len(blockOrder) {
		fmt.Fprintf(sb, " extra-blocks=%d", len(res.Blocks))
	}
	for _, s := range res.Spans {
		fmt.Fprintf(sb, " [%s %x %x %d]", s.Block, math.Float64bits(s.Start), math.Float64bits(s.Dur), s.Bytes)
	}
	sb.WriteByte('\n')
}

// goldenCall is how one group of the matrix issues a call on cfg.
type goldenCall func(cfg Config, v goldenVariant, payload []byte) (*Result, error)

func goldenCompress(cfg Config, v goldenVariant, payload []byte) (*Result, error) {
	c, err := NewCompressor(cfg)
	if err != nil {
		return nil, err
	}
	c.SetTracing(v.trace)
	c.SetFaultInjector(v.injector)
	return c.Compress(payload)
}

func goldenDecompress(cfg Config, v goldenVariant, payload []byte) (*Result, error) {
	d, err := NewDecompressor(cfg)
	if err != nil {
		return nil, err
	}
	d.SetTracing(v.trace)
	d.SetFaultInjector(v.injector)
	return d.Decompress(payload)
}

// goldenLines runs the whole matrix through the two calls and returns one
// line per (variant, algo, op, input) holding two digests over that group's 24
// configurations: one of everything, one leaving the payload out (what timing
// a size-only trace can be held to).
func goldenLines(t *testing.T, compress, decompress goldenCall) []string {
	t.Helper()
	inputs := goldenInputs()
	var lines []string
	for _, v := range goldenVariants {
		for _, algo := range []comp.Algorithm{comp.Snappy, comp.ZStd} {
			for _, op := range []comp.Op{comp.Compress, comp.Decompress} {
				for _, in := range inputs {
					payload, call := in.data, compress
					if op == comp.Decompress {
						enc, err := comp.CompressCall(algo, 0, 0, in.data)
						if err != nil {
							t.Fatal(err)
						}
						payload, call = enc, decompress
					}
					var full, bare strings.Builder
					for _, cfg := range goldenConfigs(algo, op, v) {
						res, err := call(cfg, v, payload)
						for _, sb := range []*strings.Builder{&full, &bare} {
							sb.WriteString(cfg.Name())
							sb.WriteByte(' ')
							renderOutcome(sb, res, err, sb == &full)
						}
					}
					lines = append(lines, fmt.Sprintf("%s %v-%v %s %x %x", v.name, algo, op, in.name,
						sha256.Sum256([]byte(full.String())), sha256.Sum256([]byte(bare.String()))))
				}
			}
		}
	}
	return lines
}

func readGolden(t *testing.T) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// dropFullDigest removes a group line's fourth column, the digest that covers
// payload bytes.
func dropFullDigest(line string) string {
	f := strings.Fields(line)
	return strings.Join(append(f[:3:3], f[4:]...), " ")
}

// diffGolden compares group lines with the checked-in ones.
func diffGolden(t *testing.T, label string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d groups, golden has %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: group differs from the pre-split golden:\n got  %s\n want %s", label, got[i], want[i])
		}
	}
}

// TestResultsMatchPreSplitGolden is the differential for the functional /
// timing split: Algo x Op x four placements x SRAM {2K, 64K} x speculation
// {4, 16, 32} over every corpus kind, healthy (traced), under a fault plan and
// under a tight watchdog, every Result or DeviceError compared field for field
// with what Compress and Decompress returned before the split.
func TestResultsMatchPreSplitGolden(t *testing.T) {
	got := goldenLines(t, goldenCompress, goldenDecompress)
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	diffGolden(t, "Compress/Decompress", got, readGolden(t))
}
