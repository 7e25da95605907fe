package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8",
		"F3", "F4", "F5", "F6", "F7", "A1", "A2", "A3", "A4", "A5", "X1", "X2", "X3", "X4", "X5", "X6", "X7", "X8", "X10"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	// Ordering: tables first, then figures, then ablations.
	order := make([]string, len(all))
	for i, e := range all {
		order[i] = e.ID
	}
	got := strings.Join(order, ",")
	if got != strings.Join(want, ",") {
		t.Errorf("order = %s", got)
	}
}

func TestLookupByNameAndCase(t *testing.T) {
	if _, ok := Lookup("t3"); !ok {
		t.Error("lowercase lookup failed")
	}
	if e, ok := Lookup("fir-runtime"); !ok || e.ID != "T3" {
		t.Error("name lookup failed")
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("bogus lookup succeeded")
	}
}

// Every experiment must run cleanly in quick mode and produce a populated
// table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run(Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ID != e.ID {
				t.Errorf("table id %s != experiment id %s", tbl.ID, e.ID)
			}
			if len(tbl.Rows) == 0 || len(tbl.Header) == 0 {
				t.Error("empty table")
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Errorf("row width %d != header width %d: %v",
						len(row), len(tbl.Header), row)
				}
			}
			if !strings.Contains(tbl.String(), tbl.Title) {
				t.Error("rendered table missing title")
			}
		})
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		ID:     "X1",
		Title:  "demo",
		Header: []string{"a", "b"},
		Notes:  []string{"a note"},
	}
	tbl.AddRow("1", "2")
	s := tbl.String()
	for _, want := range []string{"X1: demo", "a", "1", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendering missing %q:\n%s", want, s)
		}
	}
}

// Quick-mode sanity assertions on the headline numbers.
func TestQuickHeadlines(t *testing.T) {
	t3, ok := Lookup("T3")
	if !ok {
		t.Fatal("T3 missing")
	}
	tbl, err := t3.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	// UVM-opt row must be all 1.00/1.00 (self-normalized).
	for _, row := range tbl.Rows {
		if row[0] == "UVM-opt" {
			for _, cell := range row[1:] {
				if cell != "1.00/1.00" {
					t.Errorf("UVM-opt cell %q, want 1.00/1.00", cell)
				}
			}
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{
		ID:     "X0",
		Title:  "demo",
		Header: []string{"a", "b"},
	}
	tbl.AddRow("1", "with,comma")
	got := tbl.CSV()
	want := "a,b\n1,\"with,comma\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}

// Targeted invariants for the extension experiments in quick mode.
func TestExtensionInvariants(t *testing.T) {
	quick := Options{Quick: true}

	t.Run("X1-discard-cuts-on-both-links", func(t *testing.T) {
		tbl := mustRun(t, "X1", quick)
		// Rows: PCIe base, PCIe discard, NVLink base, NVLink discard. The
		// discard rows carry a non-"-" cut percentage.
		cuts := 0
		for _, row := range tbl.Rows {
			if row[len(row)-1] != "-" {
				cuts++
			}
		}
		if cuts != 2 {
			t.Errorf("expected a discard cut on both links, got %d", cuts)
		}
	})

	t.Run("X2-readmostly-kills-d2h", func(t *testing.T) {
		tbl := mustRun(t, "X2", quick)
		base := cellFloat(t, tbl, "plain UVM", 4)
		hinted := cellFloat(t, tbl, "+ read-mostly (weights)", 4)
		if hinted*4 > base {
			t.Errorf("read-mostly D2H %.3f not << base %.3f", hinted, base)
		}
	})

	t.Run("X3-discard-halves-peer", func(t *testing.T) {
		tbl := mustRun(t, "X3", quick)
		base := cellFloat(t, tbl, "UVM-opt", 1)
		disc := cellFloat(t, tbl, "UvmDiscard", 1)
		if disc >= base {
			t.Errorf("peer traffic not reduced: %.3f >= %.3f", disc, base)
		}
		lazy := cellFloat(t, tbl, "UvmDiscardLazy", 1)
		if lazy != disc {
			t.Errorf("lazy peer traffic %.3f != eager %.3f", lazy, disc)
		}
	})

	t.Run("X4-discard-beats-free-api-cost", func(t *testing.T) {
		tbl := mustRun(t, "X4", quick)
		// keep has the most traffic; free and discard agree on traffic.
		keep := cellFloat(t, tbl, "keep", 1)
		free := cellFloat(t, tbl, "free", 1)
		disc := cellFloat(t, tbl, "discard", 1)
		if !(disc < keep && free < keep) {
			t.Errorf("traffic ordering wrong: keep %.3f free %.3f discard %.3f",
				keep, free, disc)
		}
	})

	t.Run("X5-recompute-shrinks-footprint", func(t *testing.T) {
		tbl := mustRun(t, "X5", quick)
		// Every recompute row reports a smaller footprint than UVM-opt at
		// the same batch.
		var normal, rec string
		for _, row := range tbl.Rows {
			switch row[1] {
			case "UVM-opt":
				normal = row[2]
			case "recompute":
				rec = row[2]
				if rec == normal {
					t.Errorf("recompute footprint %s not reduced", rec)
				}
			}
		}
	})
}

func mustRun(t *testing.T, id string, o Options) *Table {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("%s missing", id)
	}
	tbl, err := e.Run(o)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func cellFloat(t *testing.T, tbl *Table, rowName string, col int) float64 {
	t.Helper()
	for _, row := range tbl.Rows {
		if row[0] == rowName {
			var v float64
			if _, err := fmt.Sscanf(row[col], "%f", &v); err != nil {
				t.Fatalf("cell %q: %v", row[col], err)
			}
			return v
		}
	}
	t.Fatalf("row %q missing", rowName)
	return 0
}

func TestChartRendering(t *testing.T) {
	tbl := &Table{
		ID:     "F9",
		Title:  "demo",
		Header: []string{"size", "GBps"},
	}
	tbl.AddRow("small", "1.0")
	tbl.AddRow("big", "10.0")
	tbl.AddRow("  (paper)", "99") // reference rows are skipped
	tbl.AddRow("broken", "oops")  // non-numeric renders as "-"
	chart := tbl.Chart(1, 10)
	if !strings.Contains(chart, "██████████ 10") {
		t.Errorf("max bar wrong:\n%s", chart)
	}
	if !strings.Contains(chart, "█░░░░░░░░░ 1") {
		t.Errorf("small bar wrong:\n%s", chart)
	}
	if strings.Contains(chart, "99") {
		t.Error("paper row charted")
	}
	if !strings.Contains(chart, "-") {
		t.Error("non-numeric row not marked")
	}
	// Bad inputs return nothing.
	if tbl.Chart(0, 10) != "" || tbl.Chart(5, 10) != "" || tbl.Chart(1, 0) != "" {
		t.Error("invalid chart params accepted")
	}
	if got := tbl.DefaultChartColumn(); got != 1 {
		t.Errorf("default column = %d", got)
	}
	empty := &Table{ID: "E", Header: []string{"a", "b"}}
	if empty.DefaultChartColumn() != 0 {
		t.Error("empty table should not be chartable")
	}
}

// A figure chart labels each bar with its row's label columns only. F6
// charts UVM-opt, the column after No-UVM's measured throughput, and its
// labels must be the model and the batch, never No-UVM's value.
func TestFigureChartLabelsAreLabelColumns(t *testing.T) {
	e, ok := Lookup("F6")
	if !ok {
		t.Fatal("experiment F6 missing")
	}
	tbl, err := e.Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Header[:2]; got[0] != "Model" || got[1] != "Batch" {
		t.Fatalf("F6 label columns are %q, want Model and Batch", got)
	}
	col := tbl.DefaultChartColumn()
	lines := strings.Split(strings.TrimSuffix(tbl.Chart(col, 40), "\n"), "\n")
	if len(lines) != len(tbl.Rows)+1 {
		t.Fatalf("F6 chart has %d lines for %d rows:\n%s", len(lines), len(tbl.Rows), strings.Join(lines, "\n"))
	}
	width := 0
	for _, row := range tbl.Rows {
		width = max(width, len(row[0]+" "+row[1]))
	}
	for i, row := range tbl.Rows {
		if want := fmt.Sprintf("  %-*s  ", width, row[0]+" "+row[1]); !strings.HasPrefix(lines[i+1], want) {
			t.Errorf("F6 bar %d is %q, want it labelled %q", i, lines[i+1], want)
		}
	}
}

// Each quick figure charts its first measured column, not a label column
// such as F5-F7's batch sizes, and the bars carry that column's values.
func TestFiguresChartMeasuredColumn(t *testing.T) {
	want := []struct{ id, header string }{
		{"F3", "Total"}, {"F4", "PCIe-3"}, {"F5", "UVM-opt"}, {"F6", "UVM-opt"}, {"F7", "UVM-opt"},
	}
	for _, w := range want {
		e, ok := Lookup(w.id)
		if !ok {
			t.Fatalf("experiment %s missing", w.id)
		}
		tbl, err := e.Run(Options{Quick: true})
		if err != nil {
			t.Fatalf("%s: %v", w.id, err)
		}
		col := tbl.DefaultChartColumn()
		if col <= 0 || tbl.Header[col] != w.header {
			t.Errorf("%s charts column %d of %q, want %q", w.id, col, tbl.Header, w.header)
			continue
		}
		chart := tbl.Chart(col, 40)
		for _, row := range tbl.Rows {
			v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
			if err != nil {
				continue // a "-" cell has no bar
			}
			if bar := fmt.Sprintf(" %.4g\n", v); !strings.Contains(chart, bar) {
				t.Errorf("%s chart has no bar ending %q:\n%s", w.id, bar, chart)
			}
		}
	}
}
