package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func renderResults(results []RunResult) string {
	var b strings.Builder
	for _, r := range results {
		if r.Err == nil && r.Table != nil {
			b.WriteString(r.Table.String())
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// A journaled batch resumed after losing its process re-renders byte-
// identical output without re-running the completed experiments.
func TestJournalResumeIsByteIdentical(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	selected := []Experiment{
		stubExperiment("J1", nil), stubExperiment("J2", nil), stubExperiment("J3", nil),
	}
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	first := RunAll(selected, Options{}, j, nil)
	j.Close()
	want := renderResults(first)

	// "Crash": reopen from disk. The resumed batch must not invoke Run at
	// all — poisoned stubs prove every result came from the journal.
	poisoned := make([]Experiment, len(selected))
	for i, e := range selected {
		id := e.ID
		poisoned[i] = stubExperiment(id, func(Options) (*Table, error) {
			t.Errorf("experiment %s re-ran despite being journaled", id)
			return nil, errors.New("re-ran")
		})
	}
	j2, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Resumed() != len(selected) {
		t.Fatalf("journal resumed %d records, want %d", j2.Resumed(), len(selected))
	}
	second := RunAll(poisoned, Options{}, j2, nil)
	for _, r := range second {
		if !r.Resumed || r.Err != nil {
			t.Errorf("%s: resumed=%v err=%v", r.Experiment.ID, r.Resumed, r.Err)
		}
	}
	if got := renderResults(second); got != want {
		t.Errorf("resumed output differs:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// A journal whose final record was torn by a crash mid-write loads the
// intact prefix, truncates the torn tail, and stays appendable; the torn
// experiment simply re-runs.
func TestJournalTruncatesTornTail(t *testing.T) {
	for _, tear := range []string{
		`{"id":"J2","quick":false,"table":{"ID":"J2"`, // no newline
		"{\"id\":\"J2\",\"quick\":false,\"tab\n",      // newline, garbage payload
		"garbage\n",
	} {
		path := filepath.Join(t.TempDir(), "batch.jsonl")
		j, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		good := RunResult{Experiment: stubExperiment("J1", nil)}
		good.Table = &Table{ID: "J1", Title: "ok", Header: []string{"a"}, Rows: [][]string{{"1"}}}
		if err := j.Record(good); err != nil {
			t.Fatal(err)
		}
		j.Close()
		intact, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		f.WriteString(tear)
		f.Close()

		j2, err := OpenJournal(path, false)
		if err != nil {
			t.Fatalf("tear %q: %v", tear, err)
		}
		if j2.Resumed() != 1 {
			t.Fatalf("tear %q: resumed %d records, want 1", tear, j2.Resumed())
		}
		if tbl, ok := j2.Done("J1"); !ok || tbl.String() != good.Table.String() {
			t.Fatalf("tear %q: intact record lost", tear)
		}
		if _, ok := j2.Done("J2"); ok {
			t.Fatalf("tear %q: torn record resurrected", tear)
		}
		// Opening repaired the file: the torn bytes are physically gone.
		repaired, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(repaired) != string(intact) {
			t.Fatalf("tear %q: repaired file %q, want intact prefix %q", tear, repaired, intact)
		}
		// And the journal accepts new records cleanly after the repair.
		redone := RunResult{Experiment: stubExperiment("J2", nil),
			Table: &Table{ID: "J2", Title: "redo", Header: []string{"a"}}}
		if err := j2.Record(redone); err != nil {
			t.Fatal(err)
		}
		j2.Close()
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(string(after), string(intact)) {
			t.Fatalf("tear %q: intact prefix rewritten", tear)
		}
		j3, err := OpenJournal(path, false)
		if err != nil {
			t.Fatal(err)
		}
		if j3.Resumed() != 2 {
			t.Fatalf("tear %q: post-repair journal resumed %d, want 2", tear, j3.Resumed())
		}
		j3.Close()
	}
}

// Corruption anywhere before the final line is refused loudly — silently
// skipping a mid-file record would resurrect completed work.
func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	content := `{"id":"J1","quick":false,"table":{"ID":"J1","Title":"t","Header":["a"]}}` + "\n" +
		"garbage\n" +
		`{"id":"J3","quick":false,"table":{"ID":"J3","Title":"t","Header":["a"]}}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path, false); err == nil {
		t.Fatal("mid-file corruption accepted")
	}
}

// Records from a different Quick mode are ignored: a quick smoke batch and
// a full-scale batch sharing a journal never cross-contaminate.
func TestJournalKeysOnQuickFlag(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	j, err := OpenJournal(path, true)
	if err != nil {
		t.Fatal(err)
	}
	r := RunResult{Experiment: stubExperiment("J1", nil),
		Table: &Table{ID: "J1", Title: "quick", Header: []string{"a"}}}
	if err := j.Record(r); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	if full.Resumed() != 0 {
		t.Fatalf("full-scale journal resumed %d quick records", full.Resumed())
	}
}

// Failed and interrupted results are never journaled — they must re-run on
// resume rather than replay their failure.
func TestJournalSkipsFailedResults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.jsonl")
	j, err := OpenJournal(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	bad := RunResult{Experiment: stubExperiment("J1", nil), Err: errors.New("boom")}
	if err := j.Record(bad); err != nil {
		t.Fatal(err)
	}
	if j.Resumed() != 0 {
		t.Fatal("failed result was journaled")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 0 {
		t.Fatalf("failed result wrote bytes: %q", data)
	}
}
