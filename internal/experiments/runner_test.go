package experiments

import (
	"errors"
	"strings"
	"testing"
)

// renderAll concatenates the tables the way cmd/paperbench emits them.
func renderAll(t *testing.T, results []RunResult) string {
	t.Helper()
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s failed: %v", r.Experiment.ID, r.Err)
		}
		b.WriteString(r.Table.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// The headline concurrency claim: running the quick experiment set with 8
// cell workers renders byte-identical tables to one worker running every
// cell in index order. Any shared mutable state between cells would show up
// here as a diff (and as a data race under -race).
func TestRunAllDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quick suite twice")
	}
	opts := Options{Quick: true}
	selected := All()
	setProcs(t, 1)
	serial := renderAll(t, RunAll(selected, opts, nil, nil))
	setProcs(t, 8)
	parallel := renderAll(t, RunAll(selected, opts, nil, nil))
	if serial != parallel {
		t.Errorf("8 cell workers differ from 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// Results come back in selection order with one progress callback per
// experiment, in the same order.
func TestRunAllOrderAndProgress(t *testing.T) {
	mk := func(id string) Experiment {
		return Experiment{ID: id, Name: "stub-" + id, Run: func(Options) (*Table, error) {
			return &Table{ID: id, Title: id, Header: []string{"a"}}, nil
		}}
	}
	selected := []Experiment{mk("S1"), mk("S2"), mk("S3"), mk("S4"), mk("S5")}
	var progressed []string
	results := RunAll(selected, Options{}, nil, func(r RunResult) {
		progressed = append(progressed, r.Experiment.ID)
	})
	if len(results) != len(selected) {
		t.Fatalf("%d results, want %d", len(results), len(selected))
	}
	for i, r := range results {
		if r.Experiment.ID != selected[i].ID {
			t.Errorf("result %d is %s, want %s", i, r.Experiment.ID, selected[i].ID)
		}
		if r.Err != nil || r.Table == nil {
			t.Errorf("result %d: err=%v table=%v", i, r.Err, r.Table)
		}
	}
	if got, want := strings.Join(progressed, ","), "S1,S2,S3,S4,S5"; got != want {
		t.Errorf("progress fired for %s, want %s", got, want)
	}
}

// A panicking or erroring experiment is captured — stack attached — without
// stopping the other experiments.
func TestRunAllCapturesPanicsAndErrors(t *testing.T) {
	boom := errors.New("boom")
	selected := []Experiment{
		{ID: "OK1", Name: "ok", Run: func(Options) (*Table, error) {
			return &Table{ID: "OK1", Title: "fine", Header: []string{"a"}}, nil
		}},
		{ID: "PAN", Name: "panics", Run: func(Options) (*Table, error) {
			panic("kaboom")
		}},
		{ID: "ERR", Name: "errors", Run: func(Options) (*Table, error) {
			return nil, boom
		}},
		{ID: "OK2", Name: "ok-too", Run: func(Options) (*Table, error) {
			return &Table{ID: "OK2", Title: "fine", Header: []string{"a"}}, nil
		}},
	}
	results := RunAll(selected, Options{}, nil, nil)
	if results[0].Err != nil || results[3].Err != nil {
		t.Errorf("healthy experiments failed: %v / %v", results[0].Err, results[3].Err)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "kaboom") {
		t.Errorf("panic not captured: %v", results[1].Err)
	}
	if !strings.Contains(results[1].Err.Error(), "runner_test.go") {
		t.Errorf("captured panic lacks a stack trace: %v", results[1].Err)
	}
	if !errors.Is(results[2].Err, boom) {
		t.Errorf("error not propagated: %v", results[2].Err)
	}
	failed := Failed(results)
	if len(failed) != 2 || failed[0].Experiment.ID != "PAN" || failed[1].Experiment.ID != "ERR" {
		t.Errorf("Failed() = %v", failed)
	}
}

// Degenerate inputs: an empty selection and a selection of one.
func TestRunAllEdgeCases(t *testing.T) {
	if got := RunAll(nil, Options{}, nil, nil); len(got) != 0 {
		t.Errorf("empty selection produced %d results", len(got))
	}
	one := []Experiment{{ID: "X", Name: "x", Run: func(Options) (*Table, error) {
		return &Table{ID: "X", Title: "x", Header: []string{"a"}}, nil
	}}}
	if results := RunAll(one, Options{}, nil, nil); len(results) != 1 || results[0].Err != nil {
		t.Errorf("one experiment: %v", results)
	}
}
