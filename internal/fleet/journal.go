package fleet

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
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

// replayRecLocked applies one journal record to coordinator state during Open.
// Replay is strict: a record that does not compose with the state built so
// far (duplicate submit, lease of an unknown job or of one that is not
// queued, a retry, done or fail that does not end the current lease at its
// attempt) is corruption and fails the open, on the final line too. Only a
// final line that is unterminated or not valid JSON is a torn tail, which
// jsonl truncates; the transition it held simply re-happens live.
func (c *Coordinator) replayRecLocked(rec journalRec) error {
	switch rec.Op {
	case "submit":
		if rec.ID == "" || rec.Spec == nil {
			return fmt.Errorf("submit record missing id or spec")
		}
		if _, ok := c.jobs[rec.ID]; ok {
			return fmt.Errorf("duplicate submit for job %s", rec.ID)
		}
		if err := rec.Spec.Validate(); err != nil {
			return fmt.Errorf("submit %s: %v", rec.ID, err)
		}
		j := &jobRec{ID: rec.ID, Spec: *rec.Spec, State: JobQueued}
		c.jobs[rec.ID] = j
		c.enqueueLocked(j, c.cfg.now())
		c.noteJobIDLocked(rec.ID)
	case "lease":
		j, ok := c.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("lease for unknown job %s", rec.ID)
		}
		// The live Lease grants only queued jobs: a lease of a leased job
		// would silently supersede the current one.
		if j.State != JobQueued {
			return fmt.Errorf("lease for job %s, which is %s", rec.ID, j.State)
		}
		if rec.Attempt != j.Attempt+1 {
			return fmt.Errorf("lease for job %s skips attempt (have %d, record %d)", rec.ID, j.Attempt, rec.Attempt)
		}
		c.dequeueLocked(j)
		j.State = JobLeased
		j.Attempt = rec.Attempt
		j.Worker = rec.Worker
		// Expiry is left zero: wall time did not survive the restart, and
		// recoverOrphans requeues every still-leased job anyway.
	case "retry", "done", "fail":
		j, ok := c.jobs[rec.ID]
		if !ok {
			return fmt.Errorf("%s for unknown job %s", rec.Op, rec.ID)
		}
		// The live coordinator writes these only to end the current
		// lease: retry and fail from requeueLocked, done from Complete
		// with the holder's worker and attempt.
		if j.State != JobLeased || rec.Attempt != j.Attempt {
			return fmt.Errorf("%s for job %s attempt %d, which is %s at attempt %d", rec.Op, rec.ID, rec.Attempt, j.State, j.Attempt)
		}
		switch rec.Op {
		case "retry":
			j.State = JobQueued
			j.Worker = ""
			j.LastErr = rec.Err
			c.enqueueLocked(j, c.cfg.now().Add(c.backoff(j.Attempt)))
		case "done":
			if rec.Worker != j.Worker {
				return fmt.Errorf("done for job %s from worker %q, but attempt %d is leased to %q", rec.ID, rec.Worker, j.Attempt, j.Worker)
			}
			j.State = JobDone
			j.Output = rec.Output
			j.LastErr = ""
		case "fail":
			j.State = JobFailed
			j.Worker = ""
			j.LastErr = rec.Err
		}
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// jobIDPrefix shapes coordinator-assigned job IDs: fj-1, fj-2, ...
const jobIDPrefix = "fj-"

// noteJobIDLocked keeps the ID counter ahead of every replayed ID so a restarted
// coordinator never reassigns one.
func (c *Coordinator) noteJobIDLocked(id string) {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, jobIDPrefix), 10, 64)
	if err == nil && n > c.lastJobNum {
		c.lastJobNum = n
	}
}
