// Package jsonl is the crash-safe JSON-lines machinery shared by every
// durable log in the system: the experiment batch journal
// (internal/experiments) and the fleet coordinator's job journal
// (internal/fleet). It packages the two properties those logs depend on:
//
//   - Durability per record: Append writes one line and fsyncs before
//     returning, so a record that Append acknowledged survives kill -9.
//   - Crash repair on open: a torn trailing line — the signature of a
//     process dying mid-write — is truncated away and simply re-done by the
//     caller, while corruption anywhere earlier is a hard error, because
//     silently skipping an interior record would resurrect completed work.
//
// The torn-tail rule has two shapes. A final line with no terminating
// newline is always torn. A final line that is newline-terminated but is
// not valid JSON is the same crash signature (the newline made it to disk,
// the payload did not) and is also truncated. Nothing else is torn: Append
// writes one record and its newline in one call and refuses embedded
// newlines, so a crash cannot leave a complete line of valid JSON. A
// complete record that the caller's decoder rejects is corruption or
// version skew, and refuses the whole file wherever it stands.
package jsonl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Appender is an append-only, fsync-per-record JSON-lines file. It is safe
// for concurrent Append calls.
type Appender struct {
	mu sync.Mutex
	f  *os.File
	// err is the first failed write or sync. After it, the file may end in
	// a torn or unsynced record, so every later Append is refused with it:
	// a record appended after one that may be lost could replay without
	// its predecessor.
	err error
}

// Open opens (creating if needed) the JSON-lines file at path, replays
// every complete line through decode, repairs a torn tail by truncating it,
// and returns an appender positioned at the end of the valid prefix.
//
// decode is called once per newline-terminated line, in file order, and
// reports whether the line is a valid record. A decode error on a final
// line that is not valid JSON is treated as a torn write and truncated
// away; any other decode error fails Open and leaves the file untouched —
// a record that was written whole must never be skipped.
func Open(path string, decode func(line []byte) error) (*Appender, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	valid := 0
	for off := 0; off < len(data); {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// No terminating newline: the process died mid-write. Drop it.
			break
		}
		line := data[off : off+nl]
		if derr := decode(line); derr != nil {
			if off+nl+1 == len(data) && !json.Valid(line) {
				// Terminated but unparsable final line: same torn-write
				// crash signature; truncate and let the caller re-do it.
				break
			}
			return nil, fmt.Errorf("%s: corrupt record at byte %d: %v", path, off, derr)
		}
		off += nl + 1
		valid = off
	}
	if valid < len(data) {
		if terr := os.Truncate(path, int64(valid)); terr != nil {
			return nil, fmt.Errorf("truncating torn record: %w", terr)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Appender{f: f}, nil
}

// Append writes one record line (a terminating newline is added) and forces
// it to stable storage before returning: after Append returns nil, kill -9
// cannot lose the record. The line must not itself contain a newline —
// records are the unit of repair, and an embedded newline would split one
// record into a valid-looking prefix and a corrupt remainder. After a
// failed write or sync, Append writes nothing more and returns that first
// error: the caller must not act on a transition it could not journal, and
// only reopening the file (which repairs a torn tail) resumes appending.
func (a *Appender) Append(line []byte) error {
	if bytes.IndexByte(line, '\n') >= 0 {
		return fmt.Errorf("jsonl: record contains a newline")
	}
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.err != nil {
		return a.err
	}
	if _, err := a.f.Write(buf); err != nil {
		a.err = err
		return err
	}
	if err := a.f.Sync(); err != nil {
		a.err = err
		return err
	}
	return nil
}

// Err returns the failed write or sync after which the appender refuses
// every Append, or nil while it still accepts them.
func (a *Appender) Err() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// Close releases the file. Records already appended remain durable.
func (a *Appender) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.f.Close()
}
