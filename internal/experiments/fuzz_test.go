package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fuzzLine renders one valid journal line for the seed corpus.
func fuzzLine(id string, quick bool) string {
	rec := journalRecord{
		ID:    id,
		Name:  "seed-" + id,
		Quick: quick,
		Table: &Table{ID: id, Title: "t", Header: []string{"a"}, Rows: [][]string{{"1"}}},
	}
	b, err := json.Marshal(rec)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// FuzzJournal feeds adversarial on-disk journal bytes to OpenJournal and
// holds it to the crash-repair contract (mirroring internal/faultinject's
// FuzzParseSpec discipline for the spec grammar):
//
//   - Open either fails with an ordinary error or succeeds — never panics.
//   - The only mutation Open may make is truncating a torn tail: the file
//     after a successful open is a prefix of the input.
//   - Interior corruption and a complete final record that is valid JSON
//     but not a journal record are hard errors, torn tails (unterminated,
//     or a final line that is not valid JSON) are repaired, duplicate IDs
//     collapse last-writer-wins, and records under the other quick flag are
//     preserved but not loaded.
//   - A repaired journal stays writable and a second open round-trips every
//     loaded record plus the fresh append — repair is idempotent.
func FuzzJournal(f *testing.F) {
	good := fuzzLine("T1", true)
	goodSlow := fuzzLine("T1", false)
	dup := fuzzLine("T1", true)
	other := fuzzLine("T2", true)
	f.Add([]byte(nil), true)
	f.Add([]byte(good+"\n"), true)
	f.Add([]byte(good+"\n"+other+"\n"), true)
	// Duplicate IDs: legal, last record wins.
	f.Add([]byte(good+"\n"+dup+"\n"), true)
	// Mixed quick flags: both legal, only the matching one loads.
	f.Add([]byte(good+"\n"+goodSlow+"\n"), true)
	f.Add([]byte(good+"\n"+goodSlow+"\n"), false)
	// Torn tails: unterminated, and a terminated final line that is not
	// valid JSON.
	f.Add([]byte(good+"\n"+other[:len(other)/2]), true)
	f.Add([]byte(good+"\n"+"{\"id\":\"T9\",\"table\"\n"), true)
	// Complete final lines of valid JSON that are not records: written
	// whole, so not torn, and refused like interior corruption.
	f.Add([]byte(good+"\n"+"null\n"), true)
	f.Add([]byte(good+"\n"+"{}\n"), true)
	// Torn: a lone unterminated brace.
	f.Add([]byte("{"), true)
	// Interior corruption: garbage, valid JSON of the wrong shape, and a
	// record missing required fields, each followed by a valid record.
	f.Add([]byte("garbage\n"+good+"\n"), true)
	f.Add([]byte("42\n"+good+"\n"), true)
	f.Add([]byte("{\"name\":\"no-id\",\"quick\":true}\n"+good+"\n"), true)
	f.Add([]byte(good+"\nnull\n"+other+"\n"), true)
	// Oversized line: far beyond any real table, must still round-trip.
	f.Add([]byte(fuzzLine(strings.Repeat("x", 1<<16), true)+"\n"), true)
	// Stray CR / BOM / binary noise.
	f.Add([]byte(good+"\r\n"), true)
	f.Add([]byte("\xef\xbb\xbf"+good+"\n"), true)
	f.Add([]byte{0, 1, 2, '\n'}, true)

	f.Fuzz(func(t *testing.T, data []byte, quick bool) {
		// Oracle: the valid prefix per the documented contract. A line is a
		// valid record iff it JSON-decodes into a journalRecord with a
		// non-empty ID and a table. The final line is torn (repairable) if
		// unterminated or not valid JSON; any other invalid line is a hard
		// error.
		decode := func(line []byte) bool {
			var rec journalRecord
			if json.Unmarshal(line, &rec) != nil {
				return false
			}
			return rec.ID != "" && rec.Table != nil
		}
		wantDone := make(map[string]bool)
		wantErr := false
		validPrefix := 0
		for off := 0; off < len(data); {
			nl := bytes.IndexByte(data[off:], '\n')
			if nl < 0 {
				break // unterminated tail: truncated
			}
			line := data[off : off+nl]
			if !decode(line) {
				if off+nl+1 != len(data) || json.Valid(line) {
					wantErr = true
				}
				break // final line: truncated
			}
			var rec journalRecord
			_ = json.Unmarshal(line, &rec)
			if rec.Quick == quick {
				wantDone[rec.ID] = true
			}
			off += nl + 1
			validPrefix = off
		}

		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("seed write: %v", err)
		}

		j, err := OpenJournal(path, quick)
		if wantErr {
			if err == nil {
				_ = j.Close()
				t.Fatalf("open accepted interior corruption (valid prefix %d of %d bytes)", validPrefix, len(data))
			}
			return
		}
		if err != nil {
			t.Fatalf("open rejected a repairable journal: %v", err)
		}
		if got := j.Resumed(); got != len(wantDone) {
			t.Fatalf("resumed %d records, want %d", got, len(wantDone))
		}
		for id := range wantDone {
			if _, ok := j.Done(id); !ok {
				t.Fatalf("record %q lost on open", id)
			}
		}
		// Repair may only truncate the torn tail, never rewrite history.
		onDisk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatalf("reread: %v", rerr)
		}
		if len(onDisk) != validPrefix || !bytes.Equal(onDisk, data[:validPrefix]) {
			t.Fatalf("repair rewrote the file: %d bytes on disk, want the %d-byte valid prefix", len(onDisk), validPrefix)
		}

		// The repaired journal must accept a fresh record...
		newID := "fuzz-fresh"
		for i := 0; wantDone[newID]; i++ {
			newID = fmt.Sprintf("fuzz-fresh-%d", i)
		}
		tbl := &Table{ID: newID, Title: "fuzz", Header: []string{"h"}, Rows: [][]string{{"v"}}}
		if err := j.Record(RunResult{Experiment: Experiment{ID: newID, Name: "fuzz"}, Table: tbl}); err != nil {
			t.Fatalf("record after repair: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}

		// ...and a second open must round-trip everything: repair is
		// idempotent and the append is durable.
		j2, err := OpenJournal(path, quick)
		if err != nil {
			t.Fatalf("reopen after repair+append: %v", err)
		}
		defer func() {
			if cerr := j2.Close(); cerr != nil {
				t.Errorf("close reopened journal: %v", cerr)
			}
		}()
		if got := j2.Resumed(); got != len(wantDone)+1 {
			t.Fatalf("reopen resumed %d records, want %d", got, len(wantDone)+1)
		}
		back, ok := j2.Done(newID)
		if !ok {
			t.Fatalf("appended record %q lost across reopen", newID)
		}
		if back.String() != tbl.String() {
			t.Fatalf("appended record changed across reopen:\ngot:\n%s\nwant:\n%s", back.String(), tbl.String())
		}
		for id := range wantDone {
			if _, ok := j2.Done(id); !ok {
				t.Fatalf("record %q lost across reopen", id)
			}
		}
	})
}
