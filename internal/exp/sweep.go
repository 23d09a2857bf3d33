package exp

// The replay experiments (fleet-replay, chaos-sweep, failover-sweep,
// openloop-sweep, overload-sweep) are data for one runner. Each table is a
// sweep: a title and note, its columns — label columns, then cells from one
// Report→cell vocabulary — its points, each a tweak of the sweep's base
// sim.Config, and checks from one small predicate set. runSweeps prepares once
// per distinct sim prepare key (seed, calls, call-size cap, placement, trace),
// so a point that moves anything else costs one sim.Prepared.Run: phase C,
// plus a re-cost of the calls its storm hits or its brownouts touch. The
// chaos sweeps prepare once per placement, the failover sweeps once.

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"cdpu/internal/core"
	"cdpu/internal/sim"
	"cdpu/internal/traffic"
)

// A sweep is one replay table as data. cols lists the label columns first, one
// per label its points carry, then vocabulary columns.
type sweep struct {
	title, note string
	cols        string // space-separated
	base        sim.Config
	points      []point
	checks      []check
	// abort, when set, is the core.DeviceError Reason every point must fail
	// with ("*" = any); the table then prints the outcome and the reason.
	abort string
}

type point struct {
	labels []string
	tweak  func(*sim.Config) // nil = the base as is
}

func (sw *sweep) add(tweak func(*sim.Config), labels ...string) {
	sw.points = append(sw.points, point{labels, tweak})
}

// replayBase is what every replay experiment's config shares.
func replayBase(cfg Config) sim.Config {
	return sim.Config{Seed: cfg.Seed, Calls: cfg.ReplayCalls, Workers: Workers(), Devices: cfg.Devices}
}

// runSweeps replays every point of every sweep in order and checks each
// table. One sim.Prepared serves every point whose config it accepts; nothing
// outlives the call.
func runSweeps(sweeps ...*sweep) ([]*Table, error) {
	var preps []*sim.Prepared
	replay := func(c sim.Config) (*sim.Report, error) {
		for _, p := range preps {
			if r, err := p.Run(c); !errors.Is(err, sim.ErrNotPrepared) {
				return r, err
			}
		}
		p, err := sim.Prepare(c)
		if err != nil {
			return nil, err
		}
		preps = append(preps, p)
		return p.Run(c)
	}
	tables := make([]*Table, len(sweeps))
	for i, sw := range sweeps {
		t := &Table{Title: sw.title, Note: sw.note, Columns: strings.Fields(sw.cols)}
		var rs []*sim.Report
		var labels [][]string
		for _, pt := range sw.points {
			c := sw.base
			if pt.tweak != nil {
				pt.tweak(&c)
			}
			r, err := replay(c)
			row := slices.Clone(pt.labels)
			if sw.abort != "" {
				var derr *core.DeviceError
				if !errors.As(err, &derr) || sw.abort != "*" && derr.Reason != sw.abort {
					return nil, fmt.Errorf("%s %v: want a %q device abort, got %v", sw.title, pt.labels, sw.abort, err)
				}
				t.AddRow(append(row, "aborted", derr.Reason)...)
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("%s %v: %w", sw.title, pt.labels, err)
			}
			for _, col := range t.Columns[len(row):] {
				row = append(row, vocab[col].fmt(vocab[col].v(r)))
			}
			t.AddRow(row...)
			rs, labels = append(rs, r), append(labels, pt.labels)
		}
		if sw.abort != "" {
			t.Columns = append(t.Columns, "outcome", "abort reason")
		}
		for _, ck := range sw.checks {
			if err := ck(rs, labels); err != nil {
				return nil, fmt.Errorf("%s: %w", sw.title, err)
			}
		}
		tables[i] = t
	}
	return tables, nil
}

// A column is one entry of the Report→cell vocabulary: the number a table
// prints and checks read, and how it prints.
type column struct {
	v   func(*sim.Report) float64
	fmt func(float64) string
}

func ints(f func(*sim.Report) int) column {
	return column{func(r *sim.Report) float64 { return float64(f(r)) }, func(v float64) string { return strconv.Itoa(int(v)) }}
}

func frac(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

var vocab = map[string]column{
	"mean-us":        {func(r *sim.Report) float64 { return r.MeanLatencyUs }, f1},
	"p99-us":         {func(r *sim.Report) float64 { return r.P99LatencyUs }, f1},
	"sw-mean-us":     {func(r *sim.Report) float64 { return r.SoftwareMeanLatencyUs }, f1},
	"comp-util":      {func(r *sim.Report) float64 { return r.CompUtil }, pct},
	"decomp-util":    {func(r *sim.Report) float64 { return r.DecompUtil }, pct},
	"xeon-cores":     {func(r *sim.Report) float64 { return r.XeonCoresNeeded }, f2},
	"mm2":            {func(r *sim.Report) float64 { return r.AreaMM2 }, f2},
	"area-mm2":       {func(r *sim.Report) float64 { return r.AreaMM2 }, f1},
	"goodput-MB":     {func(r *sim.Report) float64 { return float64(r.GoodputBytes) / (1 << 20) }, f1},
	"unavail-Mcyc":   {func(r *sim.Report) float64 { return r.UnavailableCycles / 1e6 }, f2},
	"wasted-Mcyc":    {func(r *sim.Report) float64 { return r.WastedCycles / 1e6 }, f2},
	"gold-share":     {func(r *sim.Report) float64 { return frac(r.PerClass[0].Calls, r.Calls) }, pct},
	"gold-viol-rate": {func(r *sim.Report) float64 { return frac(r.PerClass[0].SLOViolations, r.PerClass[0].Calls) }, pct},
	"faulted":        ints(func(r *sim.Report) int { return r.FaultedCalls }),
	"retries":        ints(func(r *sim.Report) int { return r.RetryAttempts }),
	"degraded":       ints(func(r *sim.Report) int { return r.DegradedCalls }),
	"dev-served":     ints(func(r *sim.Report) int { return r.Calls - r.DegradedCalls - r.ShedCalls }),
	"shed":           ints(func(r *sim.Report) int { return r.ShedCalls }),
	"deadline-shed":  ints(func(r *sim.Report) int { return r.DeadlineSheds }),
	"quar":           ints(func(r *sim.Report) int { return r.Quarantines }),
	"failovers":      ints(func(r *sim.Report) int { return r.Failovers }),
	"hedged":         ints(func(r *sim.Report) int { return r.HedgedCalls }),
	"wins":           ints(func(r *sim.Report) int { return r.HedgeWins }),
	"opens":          ints(func(r *sim.Report) int { return r.BreakerOpens }),
	"restarts":       ints(func(r *sim.Report) int { return r.ReplicaRestarts }),
	"slo-viol":       ints(func(r *sim.Report) int { return r.SLOViolations }),
	"ups":            ints(func(r *sim.Report) int { return r.AutoscaleUps }),
	"downs":          ints(func(r *sim.Report) int { return r.AutoscaleDowns }),
	"burn-alerts":    ints(func(r *sim.Report) int { return r.BurnAlerts }),
}

// The per-class columns: shed-gold, gold-calls, alerts-gold, gold-shed-rate
// and their silver and bronze siblings.
func init() {
	for cl, name := range [traffic.NumClasses]string{"gold", "silver", "bronze"} {
		vocab["shed-"+name] = ints(func(r *sim.Report) int { return r.PerClass[cl].ShedCalls })
		vocab[name+"-calls"] = ints(func(r *sim.Report) int { return r.PerClass[cl].Calls })
		vocab["alerts-"+name] = ints(func(r *sim.Report) int { return r.PerClass[cl].BurnAlerts })
		vocab[name+"-shed-rate"] = column{func(r *sim.Report) float64 { return frac(r.PerClass[cl].ShedCalls, r.PerClass[cl].Calls) }, pct}
	}
}

// A check is a predicate over one table's Reports in row order; labels are
// each row's label cells, for the message.
type check func(rs []*sim.Report, labels [][]string) error

func val(col string, r *sim.Report) float64 { return vocab[col].v(r) }

// monotone asserts col never falls (up) or never rises (!up) from one row to
// the next row of its group: the rows sharing label cell group, or all rows
// when group < 0.
func monotone(col string, up bool, group int) check {
	return func(rs []*sim.Report, labels [][]string) error {
		prev := map[string]float64{}
		for i, r := range rs {
			g := ""
			if group >= 0 {
				g = labels[i][group]
			}
			v := val(col, r)
			if p, ok := prev[g]; ok && (up && v < p || !up && v > p) {
				return fmt.Errorf("%s went from %v to %v at %v, want it monotone", col, p, v, labels[i])
			}
			prev[g] = v
		}
		return nil
	}
}

// An operand is what a bound holds a row's cell to: num a constant, same another
// column of the row itself, at a column of a fixed row.
type operand func(rs []*sim.Report, row int) float64

func num(v float64) operand { return func([]*sim.Report, int) float64 { return v } }
func same(col string) operand {
	return func(rs []*sim.Report, i int) float64 { return val(col, rs[i]) }
}
func at(row int, col string) operand {
	return func(rs []*sim.Report, _ int) float64 { return val(col, rs[row]) }
}

// bound asserts col op ref, op one of "<=", "<" and ">", on the rows named,
// or on every row if none are.
func bound(col, op string, ref operand, rows ...int) check {
	return func(rs []*sim.Report, labels [][]string) error {
		for i := range rs {
			v, b := val(col, rs[i]), ref(rs, i)
			if ok := map[string]bool{"<=": v <= b, "<": v < b, ">": v > b}[op]; !ok && (rows == nil || slices.Contains(rows, i)) {
				return fmt.Errorf("%s %v at %v, want %s %v", col, v, labels[i], op, b)
			}
		}
		return nil
	}
}

func zero(col string, rows ...int) check    { return bound(col, "<=", num(0), rows...) }
func nonZero(col string, rows ...int) check { return bound(col, ">", num(0), rows...) }
