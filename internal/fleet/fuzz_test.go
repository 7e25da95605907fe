package fleet

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCoordinatorJournal feeds adversarial on-disk journal bytes to New and
// holds it to the crash-repair contract of the exactly-once journal, the
// way internal/experiments' FuzzJournal does for the batch journal:
//
//   - New either fails with an ordinary error or succeeds — never panics.
//   - A failed New leaves the file byte-identical to the input.
//   - A successful New may drop only a torn final line (unterminated, or
//     terminated but not valid JSON). Every byte after the kept prefix is
//     a complete record New appended itself: the retry or fail record of a
//     lease orphaned by the restart.
//   - A second New succeeds and leaves the file unchanged: repair and
//     orphan recovery are idempotent.
func FuzzCoordinatorJournal(f *testing.F) {
	submit := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}` + "\n"
	lease := func(attempt string) string {
		return `{"op":"lease","id":"fj-1","attempt":` + attempt + `,"worker":"w"}` + "\n"
	}
	f.Add([]byte(nil))
	f.Add([]byte(submit))
	// A complete final record for a job never submitted: corruption, not a
	// torn write.
	f.Add([]byte(submit + `{"op":"lease","id":"fj-9","attempt":1,"worker":"w"}` + "\n"))
	// Orphaned leases, requeued on open, then with the retry budget spent.
	f.Add([]byte(submit + lease("1")))
	f.Add([]byte(submit + lease("1") + `{"op":"retry","id":"fj-1","attempt":1,"err":"x"}` + "\n" + lease("2") + lease("3")))
	f.Add([]byte(submit + lease("1") + `{"op":"done","id":"fj-1","attempt":1,"worker":"w","output":"OUT"}` + "\n"))
	// Torn tails, and complete final lines that are valid JSON but not
	// records.
	f.Add([]byte(submit + submit[:len(submit)/2]))
	f.Add([]byte(submit + "NOT JSON\n"))
	f.Add([]byte(submit + "null\n"))
	f.Add([]byte(submit + "{}\n"))
	// Interior corruption.
	f.Add([]byte("GARBAGE\n" + submit))
	f.Add([]byte(submit + submit))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fleet.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cfg := testConfig(newFakeClock())
		cfg.JournalPath = path
		c, err := New(cfg)
		onDisk, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(onDisk, data) {
				t.Fatalf("New failed (%v) and changed the file: %q, input %q", err, onDisk, data)
			}
			return
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		kept := tornTailStripped(data)
		if !bytes.HasPrefix(onDisk, kept) {
			t.Fatalf("New rewrote history: file %q does not start with the kept input %q", onDisk, kept)
		}
		for rest := onDisk[len(kept):]; len(rest) > 0; {
			nl := bytes.IndexByte(rest, '\n')
			if nl < 0 {
				t.Fatalf("New appended an unterminated line %q", rest)
			}
			var rec journalRec
			if err := json.Unmarshal(rest[:nl], &rec); err != nil || (rec.Op != "retry" && rec.Op != "fail") {
				t.Fatalf("New appended %q, want only orphan-recovery records", rest[:nl])
			}
			rest = rest[nl+1:]
		}

		c2, err := New(cfg)
		if err != nil {
			t.Fatalf("second New on a journal the first one accepted: %v", err)
		}
		if err := c2.Close(); err != nil {
			t.Fatal(err)
		}
		if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, onDisk) {
			t.Fatalf("second New changed the file: %q, want %q (%v)", again, onDisk, err)
		}
	})
}

// tornTailStripped is data minus the final line jsonl treats as torn: an
// unterminated one, or a terminated one that is not valid JSON.
func tornTailStripped(data []byte) []byte {
	nl := bytes.LastIndexByte(data, '\n')
	if nl < len(data)-1 {
		return data[:nl+1]
	}
	if len(data) == 0 {
		return data
	}
	start := bytes.LastIndexByte(data[:nl], '\n') + 1
	if !json.Valid(data[start:nl]) {
		return data[:start]
	}
	return data
}
