package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// record is the line format these tests journal.
type record struct {
	N int `json:"n"`
}

// replay opens path and returns the records its valid prefix holds.
func replay(t *testing.T, path string) (*Appender, []int, error) {
	t.Helper()
	var got []int
	ap, err := Open(path, func(line []byte) error {
		var r record
		if err := json.Unmarshal(line, &r); err != nil {
			return err
		}
		got = append(got, r.N)
		return nil
	})
	return ap, got, err
}

func writeFile(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// After a failed write the appender refuses every later append with that
// first error and writes nothing more, even once the file would take
// writes again: the failed record may be torn or missing on disk, and a
// record appended after it could replay without its predecessor.
func TestAppendRefusedAfterWriteFailure(t *testing.T) {
	path := writeFile(t, `{"n":1}`+"\n")
	ap, _, err := replay(t, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	// Inject the failure: a read-only handle refuses the write.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	good := ap.f
	ap.f = ro
	first := ap.Append([]byte(`{"n":2}`))
	if first == nil {
		t.Fatal("append through a read-only handle succeeded")
	}
	ap.f = good
	ro.Close()
	if err := ap.Append([]byte(`{"n":3}`)); err != first {
		t.Fatalf("append after the failure returned %v, want the first error %v", err, first)
	}
	if got := readFile(t, path); got != `{"n":1}`+"\n" {
		t.Fatalf("file after the refused append = %q, want only the first record", got)
	}
}

// A torn tail in either shape is truncated, the records before it replay,
// and the next append lands right after them.
func TestOpenTruncatesTornTail(t *testing.T) {
	for name, tail := range map[string]string{
		"no newline":           `{"n":3`,
		"newline, undecoded":   `{"n":` + "\n",
		"complete, no newline": `{"n":3}`,
	} {
		path := writeFile(t, `{"n":1}`+"\n"+`{"n":2}`+"\n"+tail)
		ap, got, err := replay(t, path)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		if !slices.Equal(got, []int{1, 2}) {
			t.Errorf("%s: replayed %v, want [1 2]", name, got)
		}
		if err := ap.Append([]byte(`{"n":4}`)); err != nil {
			t.Fatal(err)
		}
		if err := ap.Close(); err != nil {
			t.Fatal(err)
		}
		if want := `{"n":1}` + "\n" + `{"n":2}` + "\n" + `{"n":4}` + "\n"; readFile(t, path) != want {
			t.Errorf("%s: file after repair and append = %q, want %q", name, readFile(t, path), want)
		}
	}
}

// A line that does not decode before the last one is corruption, not a
// torn write: Open names its byte offset and leaves the file alone.
func TestOpenRefusesInteriorCorruption(t *testing.T) {
	content := `{"n":1}` + "\n" + `garbage` + "\n" + `{"n":3}` + "\n"
	path := writeFile(t, content)
	ap, _, err := replay(t, path)
	if err == nil {
		ap.Close()
		t.Fatal("Open accepted a corrupt interior record")
	}
	if want := fmt.Sprintf("corrupt record at byte %d", len(`{"n":1}`+"\n")); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name %q", err, want)
	}
	if got := readFile(t, path); got != content {
		t.Errorf("Open changed a file it refused: %q", got)
	}
}

// A newline-terminated final line that is valid JSON was written whole, so
// a decoder that rejects it has found corruption or version skew, not a
// torn write: Open fails and leaves the file byte-identical.
func TestOpenRefusesRejectedFinalRecord(t *testing.T) {
	for _, tail := range []string{`{"n":"three"}`, `[3]`, `"3"`} {
		content := `{"n":1}` + "\n" + `{"n":2}` + "\n" + tail + "\n"
		path := writeFile(t, content)
		ap, _, err := replay(t, path)
		if err == nil {
			ap.Close()
			t.Fatalf("%s: Open accepted a complete record its decoder rejects", tail)
		}
		if want := fmt.Sprintf("corrupt record at byte %d", 2*len(`{"n":1}`+"\n")); !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not name %q", tail, err, want)
		}
		if got := readFile(t, path); got != content {
			t.Errorf("%s: Open changed a file it refused: %q", tail, got)
		}
	}
}

func TestAppendRefusesNewline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	ap, _, err := replay(t, path)
	if err != nil {
		t.Fatal(err)
	}
	defer ap.Close()
	if err := ap.Append([]byte("{\"n\":1}\n{\"n\":2}")); err == nil {
		t.Error("Append accepted a record with an embedded newline")
	}
	if got := readFile(t, path); got != "" {
		t.Errorf("refused record reached the file: %q", got)
	}
}

// Appended records replay in order after the file is closed and reopened,
// and appends after the reopen follow them.
func TestReopenReplaysInOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	var want []int
	for round := 0; round < 3; round++ {
		ap, got, err := replay(t, path)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("round %d replayed %v, want %v", round, got, want)
		}
		for i := 0; i < 5; i++ {
			n := 10*round + i
			if err := ap.Append([]byte(fmt.Sprintf(`{"n":%d}`, n))); err != nil {
				t.Fatal(err)
			}
			want = append(want, n)
		}
		if err := ap.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Concurrent appends never interleave: 8 goroutines × 100 records leave
// exactly 800 intact lines, each record once.
func TestConcurrentAppend(t *testing.T) {
	const writers, each = 8, 100
	path := filepath.Join(t.TempDir(), "log.jsonl")
	ap, _, err := replay(t, path)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := ap.Append([]byte(fmt.Sprintf(`{"n":%d}`, w*each+i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := ap.Close(); err != nil {
		t.Fatal(err)
	}

	data := []byte(readFile(t, path))
	if lines := bytes.Count(data, []byte("\n")); lines != writers*each {
		t.Fatalf("%d lines, want %d", lines, writers*each)
	}
	reopened, got, err := replay(t, path)
	if err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	slices.Sort(got)
	for i, n := range got {
		if n != i {
			t.Fatalf("records %v are not 0..%d each once", got, writers*each-1)
		}
	}
}
