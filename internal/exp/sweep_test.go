package exp

import (
	"testing"

	"cdpu/internal/obs"
	"cdpu/internal/sim"
)

// TestReplaySweepsPrepareOncePerKey runs each replay experiment twice in one
// process: both runs match the golden tables, and each runs phase B once per
// distinct prepare key, not once per point.
func TestReplaySweepsPrepareOncePerKey(t *testing.T) {
	prepares := obs.Default().Counter("sim.prepares")
	for _, tc := range []struct {
		id                string
		prepares, replays int
	}{
		{"fleet-replay", 2, 6},
		{"chaos-sweep", 2, 18}, // one per placement
		{"failover-sweep", 1, 8},
		{"openloop-sweep", 2, 10}, // the burst table needs 1200 calls, QuickConfig has 400
		{"overload-sweep", 1, 9},
	} {
		for i := 0; i < 2; i++ {
			before := prepares.Value()
			tables := run(t, tc.id)
			rows := 0
			for _, tab := range tables {
				rows += len(tab.Rows)
			}
			if d := prepares.Value() - before; d != int64(tc.prepares) || rows != tc.replays {
				t.Errorf("%s run %d: %d prepares for %d rows, want %d for %d", tc.id, i, d, rows, tc.prepares, tc.replays)
			}
		}
	}
}

// TestSweepChecks holds each predicate to a table it must pass and one it must
// fail.
func TestSweepChecks(t *testing.T) {
	rep := func(shed, degraded int) *sim.Report { return &sim.Report{ShedCalls: shed, DegradedCalls: degraded} }
	rs := []*sim.Report{rep(1, 0), rep(3, 5), rep(2, 1), rep(4, 0)}
	labels := [][]string{{"a", "x"}, {"a", "y"}, {"b", "x"}, {"b", "y"}}
	for _, tc := range []struct {
		name string
		ck   check
		ok   bool
	}{
		{"monotone per group", monotone("shed", true, 0), true},
		{"monotone across groups", monotone("shed", true, -1), false},
		{"monotone down", monotone("shed", false, 0), false},
		{"at most a constant", bound("shed", "<=", num(4)), true},
		{"above a constant", bound("shed", ">", num(1)), false},
		{"above a constant on named rows", bound("shed", ">", num(1), 1, 2, 3), true},
		{"below a fixed row", bound("shed", "<", at(3, "shed"), 0, 1, 2), true},
		{"at most another column", bound("degraded", "<=", same("shed")), false},
		{"zero on named rows", zero("degraded", 0, 3), true},
		{"zero", zero("degraded"), false},
		{"non-zero", nonZero("shed"), true},
		{"non-zero degraded", nonZero("degraded", 1, 2, 3), false},
	} {
		if err := tc.ck(rs, labels); (err == nil) != tc.ok {
			t.Errorf("%s: got %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}
