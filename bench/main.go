// Command bench is the repository's one benchmark: four named workloads,
// end-to-end metrics measured with tracing off, and a traced shadow run that
// attributes host time to each layer. See README.md in this directory.
//
//	go run ./bench -seed 1                         # all four workloads, one after another
//	go run ./bench -seed 1 -trace -trace-out spans.json
//	go run ./bench -workload codec-sw -seed 1 -seconds 20 -trace 0
//	go run ./bench -compare A.json B.json
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// options are the knobs of one invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	jsonOut  string
	smoke    bool
}

func main() {
	var o options
	var compare bool
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process (default: all four, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 20, "timed seconds per workload")
	flag.BoolVar(&o.trace, "trace", false, "run the traced shadow pass and report per-layer metrics")
	flag.StringVar(&o.traceOut, "trace-out", "", "append the traced run's spans to this file, one JSON object per line")
	flag.StringVar(&o.jsonOut, "json-out", "", "append this run's JSON document to this file")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes, for tests")
	flag.BoolVar(&compare, "compare", false, "compare two -json-out files: bench -compare A.json B.json")
	if err := flag.CommandLine.Parse(joinTraceValue(os.Args[1:])); err != nil {
		os.Exit(2)
	}

	var err error
	switch {
	case compare:
		err = runCompare(os.Stdout, flag.Args())
	case o.workload != "":
		err = runOne(os.Stdout, o)
	default:
		err = runAll(os.Stdout, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// joinTraceValue rewrites "--trace 0" / "--trace 1" to "--trace=0" /
// "--trace=1": -trace is a boolean flag, and the flag package would otherwise
// stop parsing at the bare value.
func joinTraceValue(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			a += "=" + args[i+1]
			i++
		}
		out = append(out, a)
	}
	return out
}

// runOne runs one workload in this process and prints its metrics as
// "workload metric unit value" lines, then the full row as a "row {...}"
// line, then — last — the result object the driver reads.
func runOne(w io.Writer, o options) error {
	wl, ok := workloads[o.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	r := newRun(o)
	if err := wl(r); err != nil {
		return fmt.Errorf("%s: %w", o.workload, err)
	}
	row := r.finish()
	if r.tr != nil && o.traceOut != "" {
		if err := r.tr.appendSpans(o.traceOut, o.workload); err != nil {
			return err
		}
	}

	for _, name := range row.metricNames() {
		m := row.Metrics[name]
		fmt.Fprintf(w, "%s %s %s %v\n", row.Workload, name, m.Unit, m.Value)
	}
	fmt.Fprintf(w, "%s sim_fingerprint sha256 %s\n", row.Workload, row.Fingerprint)
	rowJSON, err := json.Marshal(row)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "row %s\n", rowJSON)
	if o.jsonOut != "" {
		if err := appendLine(o.jsonOut, rowJSON); err != nil {
			return err
		}
	}

	// The driver's result: every end-to-end metric untraced, every per-layer
	// metric traced. A layer this workload never calls reports 0.
	defs := endToEnd
	if o.trace {
		defs = perLayer()
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{row.Failed == 0, row.Attempted, row.Failed, map[string]value{}}
	for _, d := range defs {
		m, ok := row.Metrics[d.Name]
		if !ok && !o.trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", o.workload, d.Name)
		}
		res.Metrics[d.Name] = value{m.Value, d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs the four workloads one after another, never two at once, each
// in a fresh child process so that caches, sync.Pools and the peak heap of
// one cannot reach the next. With -trace every workload runs a second,
// traced, child. It relays the children's metric lines and ends with one JSON
// document holding every row.
func runAll(w io.Writer, o options) error {
	if o.traceOut != "" {
		if err := os.WriteFile(o.traceOut, nil, 0o644); err != nil {
			return err
		}
	}
	var rows []json.RawMessage
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			if traced && !o.trace {
				continue
			}
			args := []string{
				"-workload", name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				fmt.Sprintf("-trace=%t", traced), fmt.Sprintf("-smoke=%t", o.smoke),
			}
			if traced && o.traceOut != "" {
				args = append(args, "-trace-out", o.traceOut)
			}
			cmd := exec.Command(os.Args[0], args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			row, err := relay(w, out)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			rows = append(rows, row)
		}
	}
	doc, err := json.Marshal(struct {
		Rows []json.RawMessage `json:"rows"`
	}{rows})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", doc)
	if o.jsonOut != "" {
		for _, row := range rows {
			if err := appendLine(o.jsonOut, row); err != nil {
				return err
			}
		}
	}
	return nil
}

// relay copies a child's metric lines to w and returns its row.
func relay(w io.Writer, out []byte) (json.RawMessage, error) {
	var row json.RawMessage
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "row "):
			row = json.RawMessage(line[len("row "):])
		case strings.HasPrefix(line, "{"): // the driver's result line
		default:
			fmt.Fprintln(w, line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if row == nil {
		return nil, fmt.Errorf("child printed no row")
	}
	return row, nil
}

func appendLine(path string, line []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
