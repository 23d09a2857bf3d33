package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden tables: testdata/tables/<id>.txt holds what experiment <id> prints at
// QuickConfig — String() then CSV() of every table — and run compares against
// it on every call, so each test that runs an experiment also pins its bytes
// and no experiment runs a second time for the comparison. Regenerate with
//
//	go test ./internal/exp -run TestGoldenTablesComplete -update
//
// only for a change that is meant to move a printed number.
var updateTables = flag.Bool("update", false, "rewrite testdata/tables/<id>.txt from this run")

const tablesDir = "testdata/tables"

// goldenChecked records the ids run has compared in this process.
var goldenChecked = map[string]bool{}

func renderGolden(tables []*Table) string {
	var sb strings.Builder
	for _, tab := range tables {
		sb.WriteString(tab.String())
		sb.WriteByte('\n')
		sb.WriteString(tab.CSV())
		sb.WriteByte('\n')
	}
	return sb.String()
}

func checkGolden(t *testing.T, id string, tables []*Table) {
	t.Helper()
	goldenChecked[id] = true
	got := renderGolden(tables)
	path := filepath.Join(tablesDir, id+".txt")
	if *updateTables {
		if err := os.MkdirAll(tablesDir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no golden table (run with -update to write it): %v", id, err)
	}
	if got != string(want) {
		t.Errorf("%s: tables differ from %s\n--- got ---\n%s--- want ---\n%s", id, path, got, want)
	}
}

// TestGoldenTablesComplete holds the golden set to the registry: every
// experiment has a file, every file an experiment, and every experiment is
// compared in a full test run — the ones no earlier test ran are run here, so
// on its own (with -update) this test also regenerates the whole set.
func TestGoldenTablesComplete(t *testing.T) {
	registered := map[string]bool{}
	for _, id := range IDs() {
		registered[id] = true
		if !goldenChecked[id] {
			t.Logf("%s: run by no earlier test; running it here", id)
			run(t, id)
		}
	}
	files, err := filepath.Glob(filepath.Join(tablesDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id, ok := strings.CutSuffix(filepath.Base(f), ".txt"); !ok || !registered[id] {
			t.Errorf("stray file %s: no such experiment", f)
		}
	}
}

// TestEveryExperimentWorkerInvariant holds every registered experiment to its
// golden at one worker and at three, in one process. The goldens are written
// at the default worker count, one on a two-CPU host, so without this the
// tables of most experiments would be pinned at a single width only.
func TestEveryExperimentWorkerInvariant(t *testing.T) {
	if *updateTables {
		t.Skip("-update writes the goldens; this test only reads them")
	}
	t.Cleanup(func() { SetWorkers(0) })
	for _, workers := range []int{1, 3} {
		SetWorkers(workers)
		for _, id := range IDs() {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, id), func(t *testing.T) { run(t, id) })
		}
	}
}
