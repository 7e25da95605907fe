package fleet

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The coordinator journal is an append-only JSON-lines log (internal/jsonl:
// fsync per record, torn-tail repair on open) of every job state transition
// that must survive a coordinator crash:
//
//	submit — a job entered the durable queue
//	lease  — attempt N was handed to a worker (fsync'd BEFORE the grant is
//	         returned, so attempt numbers are monotonic across restarts and
//	         a restarted coordinator can never re-issue an attempt number a
//	         worker already holds)
//	retry  — attempt N ended without a result (expiry, worker death, or a
//	         failure report) and the job went back to the queue
//	done   — the job's result bytes were recorded. Terminal.
//	fail   — the retry budget was exhausted; the last error is preserved.
//	         Terminal.
//
// Each record is one transition of applyLocked, which live calls and replay
// share: replay runs every line through it without the append, so it
// refuses exactly the records the live coordinator never writes.
//
// Renewals are deliberately not journaled: a renewal only moves a lease
// expiry forward in wall time, and wall time does not survive a restart
// anyway. On replay, a job whose last record is a lease is an orphaned
// lease — its worker may be dead, or may still be running and about to
// report to the reborn coordinator — and is requeued through the normal
// retry path (same backoff, same budget). If the old attempt does land
// later, the attempt check classifies it stale; the job simply runs again,
// and determinism makes the re-run byte-identical.
type journalRec struct {
	Op      string   `json:"op"`
	ID      string   `json:"id"`
	Spec    *JobSpec `json:"spec,omitempty"`
	Attempt int      `json:"attempt,omitempty"`
	Worker  string   `json:"worker,omitempty"`
	Output  string   `json:"output,omitempty"`
	Err     string   `json:"err,omitempty"`
}

// applyLocked is the lease protocol's one transition function. It checks
// rec against the current state, journals it (fsync'd) when live, and then
// applies it. A refused record and a failed append change nothing. Replay
// passes live false, so a record that does not compose with the state
// built so far is corruption and fails the open, on the final line too.
// Only a final line that is unterminated or not valid JSON is a torn tail,
// which jsonl truncates; the transition it held simply re-happens live.
// It returns the job rec moved.
func (c *Coordinator) applyLocked(rec journalRec, now time.Time, live bool) (*jobRec, error) {
	j, err := c.checkLocked(rec)
	if err != nil {
		return nil, err
	}
	if live {
		if err := c.appendRecLocked(rec); err != nil {
			return nil, err
		}
	}
	switch rec.Op {
	case "submit":
		j = &jobRec{ID: rec.ID, Spec: *rec.Spec, State: JobQueued}
		c.jobs[j.ID] = j
		c.lastJobNum = max(c.lastJobNum, jobNum(j.ID))
		c.enqueueLocked(j, now)
	case "lease":
		c.dequeueLocked(j)
		j.State, j.Attempt, j.Worker = JobLeased, rec.Attempt, rec.Worker
		j.Expiry, j.NotBefore = now.Add(c.cfg.LeaseTTL), time.Time{}
		// Replay knows no workers: the registry is soft state.
		if w := c.workers[j.Worker]; w != nil {
			w.Active[j.ID] = j
		}
	default: // retry, done and fail end the current lease
		if w := c.workers[j.Worker]; w != nil {
			delete(w.Active, j.ID)
		}
		j.Expiry = time.Time{}
		switch rec.Op {
		case "retry":
			j.State, j.Worker, j.LastErr = JobQueued, "", rec.Err
			c.enqueueLocked(j, now.Add(c.backoff(j.Attempt)))
		case "done":
			j.State, j.Output, j.LastErr = JobDone, rec.Output, ""
		case "fail":
			j.State, j.Worker, j.LastErr = JobFailed, "", rec.Err
		}
	}
	return j, nil
}

// checkLocked refuses rec unless the live coordinator could have written it
// in the current state, and returns the job it moves (nil for a submit).
func (c *Coordinator) checkLocked(rec journalRec) (*jobRec, error) {
	j := c.jobs[rec.ID]
	switch rec.Op {
	case "submit":
		if rec.ID == "" || rec.Spec == nil {
			return nil, errors.New("submit record missing id or spec")
		}
		if j != nil {
			return nil, fmt.Errorf("duplicate submit for job %s", rec.ID)
		}
		if err := rec.Spec.Validate(); err != nil {
			return nil, fmt.Errorf("submit %s: %v", rec.ID, err)
		}
		return nil, nil
	case "lease", "retry", "done", "fail":
		if j == nil {
			return nil, fmt.Errorf("%s for unknown job %s", rec.Op, rec.ID)
		}
	default:
		return nil, fmt.Errorf("unknown op %q", rec.Op)
	}
	if rec.Op == "lease" {
		// Lease grants only queued jobs, at the next attempt: a lease of a
		// leased job would silently supersede the current one.
		if j.State != JobQueued || rec.Attempt != j.Attempt+1 {
			return nil, fmt.Errorf("lease for job %s attempt %d, which is %s at attempt %d", rec.ID, rec.Attempt, j.State, j.Attempt)
		}
		return j, nil
	}
	// retry and fail end the current lease at its attempt, whoever holds
	// it; done also names the holder, from Complete.
	holder := j.Worker
	if rec.Op == "done" {
		holder = rec.Worker
	}
	if !j.leasedTo(holder, rec.Attempt) {
		return nil, fmt.Errorf("%s for job %s attempt %d from %q, which is %s at attempt %d on %q",
			rec.Op, rec.ID, rec.Attempt, holder, j.State, j.Attempt, j.Worker)
	}
	return j, nil
}

// appendRecLocked journals one transition, fsync'd. A nil appender (in-memory
// coordinator) accepts everything.
func (c *Coordinator) appendRecLocked(rec journalRec) error {
	if c.ap == nil {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("fleet journal: %w", err)
	}
	if err := c.ap.Append(line); err != nil {
		return fmt.Errorf("fleet journal: %w", err)
	}
	return nil
}

// jobIDPrefix shapes coordinator-assigned job IDs: fj-1, fj-2, ...
const jobIDPrefix = "fj-"

// jobNum is the number in a job ID, or 0 for an ID of another shape, which
// only a hand-written journal holds. Replay keeps the ID counter at the
// largest, so a restarted coordinator never reassigns an ID.
func jobNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, jobIDPrefix), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// bySubmission orders jobs as they were submitted: by job number, then by
// ID among IDs of other shapes.
func bySubmission(a, b *jobRec) int {
	return cmp.Or(cmp.Compare(jobNum(a.ID), jobNum(b.ID)), strings.Compare(a.ID, b.ID))
}
