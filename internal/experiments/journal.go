package experiments

import (
	"encoding/json"
	"fmt"
	"sync"

	"uvmdiscard/internal/jsonl"
)

// journalRecord is one line of the batch journal: a finished experiment's
// rendered table, keyed by artifact ID and the Quick flag it ran under. The
// Table is stored losslessly (every field is exported), so a resumed batch
// re-renders the exact bytes the original run would have produced.
type journalRecord struct {
	ID    string `json:"id"`
	Name  string `json:"name"`
	Quick bool   `json:"quick"`
	Table *Table `json:"table"`
}

// Journal is an append-only, fsync-per-record JSON-lines log of completed
// experiment results, the crash-safety mechanism behind resumable batches:
// a batch killed mid-run (including kill -9) is re-submitted with the same
// journal and skips every experiment whose record reached the disk,
// producing byte-identical final output. Durability and crash repair are
// internal/jsonl's contract; this type adds the result schema and the
// quick-flag keying on top.
//
// Only successful results are journaled. An experiment that failed, was
// canceled, or hit a deadline re-runs on resume — an interrupted run is a
// fact about the interruption, not a result worth replaying.
//
// A Journal is safe for concurrent use. A nil *Journal holds nothing and
// records nothing, so RunAll takes nil for a batch without one.
type Journal struct {
	mu    sync.Mutex
	ap    *jsonl.Appender
	quick bool
	done  map[string]*Table
}

// OpenJournal opens (creating if needed) the journal at path and loads the
// records previously completed under the same quick flag. A torn trailing
// line — the signature of a crash mid-write: unterminated, or not valid
// JSON — is truncated away and the experiment it belonged to simply
// re-runs; any other line that is not a record is an error, on the final
// line too, since silently skipping a record would resurrect completed work
// and corrupt the resumed output.
func OpenJournal(path string, quick bool) (*Journal, error) {
	done := make(map[string]*Table)
	ap, err := jsonl.Open(path, func(line []byte) error {
		var rec journalRecord
		if uerr := json.Unmarshal(line, &rec); uerr != nil {
			return uerr
		}
		if rec.ID == "" || rec.Table == nil {
			return fmt.Errorf("record missing id or table")
		}
		if rec.Quick == quick {
			done[rec.ID] = rec.Table
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{ap: ap, quick: quick, done: done}, nil
}

// Resumed returns how many completed experiments the journal carried when
// it was opened (plus any recorded since), i.e. how much work a resumed
// batch skips.
func (j *Journal) Resumed() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.done)
}

// Done returns the journaled table for an experiment ID, if present.
func (j *Journal) Done(id string) (*Table, bool) {
	if j == nil {
		return nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	t, ok := j.done[id]
	return t, ok
}

// Record appends one successful result and forces it to stable storage
// before returning — after Record returns, a kill -9 cannot lose the
// entry. Failed or interrupted results are ignored.
func (j *Journal) Record(r RunResult) error {
	if j == nil || r.Err != nil || r.Table == nil {
		return nil
	}
	line, err := json.Marshal(journalRecord{
		ID:    r.Experiment.ID,
		Name:  r.Experiment.Name,
		Quick: j.quick,
		Table: r.Table,
	})
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.ap.Append(line); err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	j.done[r.Experiment.ID] = r.Table
	return nil
}

// Close releases the journal file. Records already written remain valid.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ap.Close()
}
