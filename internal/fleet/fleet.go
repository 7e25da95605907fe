// Package fleet is the fault-tolerant fleet layer: it scales the hardened
// single-process simulator (cmd/uvmsimd) out to a crash-prone pool of
// workers without ever losing, duplicating, or perturbing a job's results.
//
// The shape is a coordinator/worker split with time-bounded leases:
//
//   - The Coordinator owns a durable job queue. Every state transition that
//     matters after a crash (submit, lease grant, retry, completion,
//     permanent failure) is an fsync'd JSON-lines record (internal/jsonl,
//     the same machinery behind the experiment batch journal), so a
//     coordinator killed at any instant restarts from its journal with no
//     job lost and no attempt number reused.
//   - Workers (uvmsimd -worker) pull jobs over HTTP/JSON under leases. A
//     lease is renewed from runctl.Control checkpoints — renewal is
//     evidence the simulation is actually advancing, so a hung or dead
//     worker stops renewing and its lease expires. Expiry requeues the job
//     with exponential backoff under a bounded retry budget; exhaustion
//     marks the job failed-permanent with the last error preserved.
//   - Results are reported idempotently, keyed by job ID + attempt. Only
//     the current attempt of a live lease may record a result; a stale
//     attempt (lease expired, coordinator restarted) is rejected. A repeat
//     report for a completed job is detected as a duplicate and its bytes
//     are asserted identical to the recorded result — the simulator is
//     deterministic, so an at-least-once retry must reproduce the same
//     output or something is deeply wrong (counted as a mismatch and
//     refused).
//
// Exactly-once results from at-least-once execution: execution may happen
// several times (that is what crash tolerance means), but the recorded
// result transitions exactly once, guarded by the attempt check and the
// fsync'd done record, and determinism makes every successful execution
// byte-identical. The fleet chaos harness (chaos_test.go) kills workers
// mid-job and crash-restarts the coordinator and asserts exactly that.
//
// Placement is pull-based but score-aware: workers declare a capacity, and
// the coordinator computes each worker's oversubscription ratio
// (active leases / capacity). A poll from a comparatively overloaded worker
// is deferred while strictly less-loaded live workers could absorb the
// queue, steering scarce jobs toward the least-loaded workers (the
// intelligent-oversubscription placement idea at fleet granularity).
// Tenants get admission quotas and fair-share dequeue: tenants are served
// round-robin, so one tenant's burst cannot starve another's queue.
//
// Like internal/service, this package is host-side control plane: it is on
// the simdet wall-clock allowlist, never touches simulated time, and every
// simulation run keeps the per-run isolation rules.
package fleet

import (
	"errors"
	"fmt"
	"log"
	"regexp"
	"time"
)

// JobSpec is what a fleet job runs: one experiment artifact under one
// problem-size flavor, on behalf of a tenant. A spec is a pure value — two
// runs of the same spec on any two workers render byte-identical output,
// which is the property the duplicate-detection path asserts.
type JobSpec struct {
	// Tenant is the submitting tenant (quota and fair-share unit).
	Tenant string `json:"tenant"`
	// Experiment is the experiment artifact ID (e.g. "T3"; see
	// experiments.Lookup).
	Experiment string `json:"experiment"`
	// Quick runs the scaled-down problem size.
	Quick bool `json:"quick"`
}

// JobState is the coordinator-side job lifecycle.
type JobState string

const (
	// JobQueued means the job is waiting for a lease (possibly behind a
	// retry-backoff gate).
	JobQueued JobState = "queued"
	// JobLeased means a worker holds the job under a live lease.
	JobLeased JobState = "leased"
	// JobDone means the job's result is durably recorded. Terminal.
	JobDone JobState = "done"
	// JobFailed means the retry budget is exhausted (or every attempt
	// failed); the last error is preserved. Terminal.
	JobFailed JobState = "failed"
)

// Terminal reports whether the state is sticky.
func (s JobState) Terminal() bool { return s == JobDone || s == JobFailed }

// Sentinel errors of the lease protocol. The HTTP layer maps them onto
// status codes; the worker maps them back.
var (
	// ErrStale rejects a renewal or result from an attempt that no longer
	// holds the lease (expired, re-leased, or lost to a coordinator
	// restart).
	ErrStale = errors.New("fleet: stale attempt: lease is no longer held")
	// ErrQuota rejects a submission over the tenant's admission quota.
	ErrQuota = errors.New("fleet: tenant admission quota exhausted")
	// ErrUnknownWorker rejects a call from a worker the coordinator does
	// not know (never registered, or registry lost to a restart — the
	// worker re-registers and carries on).
	ErrUnknownWorker = errors.New("fleet: unknown worker")
	// ErrNoSuchJob rejects a lookup or report for a job ID the coordinator
	// has never seen.
	ErrNoSuchJob = errors.New("fleet: no such job")
	// ErrMismatch refuses a duplicate completion whose bytes differ from
	// the recorded result — a determinism violation, never silently
	// absorbed.
	ErrMismatch = errors.New("fleet: duplicate result differs from recorded result (determinism violation)")
)

// Config tunes the coordinator. The zero value is usable (in-memory
// journal, production-shaped timeouts).
type Config struct {
	// JournalPath is the crash-safe coordinator journal (fsync'd JSONL).
	// Empty runs in-memory: correct while the process lives, nothing
	// survives a restart.
	JournalPath string
	// LeaseTTL is how long a lease lives without renewal; <=0 means 15s.
	LeaseTTL time.Duration
	// HeartbeatTimeout is how long a worker may go silent before it is
	// declared dead and its leases expire immediately; <=0 means 3×LeaseTTL.
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds lease attempts per job; a job whose attempts are
	// exhausted goes failed-permanent with the last error preserved. <1
	// means 5.
	MaxAttempts int
	// RetryBackoff is the base requeue delay after a failed or expired
	// attempt; attempt n waits RetryBackoff×2^(n-1), capped at MaxBackoff.
	// <=0 means 250ms.
	RetryBackoff time.Duration
	// MaxBackoff caps the exponential backoff; <=0 means 30s.
	MaxBackoff time.Duration
	// TenantQuota bounds each tenant's non-terminal (queued+leased) jobs;
	// submissions beyond it are rejected with ErrQuota. <1 means 64.
	TenantQuota int
	// Log receives coordinator events; nil discards them.
	Log *log.Logger

	// now overrides the clock for deterministic protocol tests; nil means
	// time.Now.
	now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 15 * time.Second
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 3 * c.LeaseTTL
	}
	if c.MaxAttempts < 1 {
		c.MaxAttempts = 5
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 30 * time.Second
	}
	if c.TenantQuota < 1 {
		c.TenantQuota = 64
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// nameOK restricts worker and tenant names to a label-safe alphabet: they
// appear in journal records, URLs, and Prometheus label values.
var nameOK = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// Validate rejects a malformed spec before it can enter the durable queue.
func (s JobSpec) Validate() error {
	if !nameOK.MatchString(s.Tenant) {
		return fmt.Errorf("fleet: tenant %q: want 1-64 chars of [A-Za-z0-9._-]", s.Tenant)
	}
	if s.Experiment == "" {
		return fmt.Errorf("fleet: empty experiment ID")
	}
	return nil
}

// LeaseGrant is what a worker receives for a leased job.
type LeaseGrant struct {
	JobID   string  `json:"job_id"`
	Attempt int     `json:"attempt"`
	Spec    JobSpec `json:"spec"`
	// TTLMillis is the lease TTL; the worker renews well inside it.
	TTLMillis int64 `json:"ttl_ms"`
}

// CompleteStatus classifies the coordinator's verdict on a reported result.
type CompleteStatus string

const (
	// CompleteRecorded means this report recorded the job's result (or,
	// for a failure report, consumed the attempt and requeued the job).
	CompleteRecorded CompleteStatus = "recorded"
	// CompleteDuplicate means the job was already done and the reported
	// bytes matched the recorded result exactly.
	CompleteDuplicate CompleteStatus = "duplicate"
	// CompleteStale means the reporting attempt no longer held the lease;
	// the report was rejected and the job runs (or ran) elsewhere.
	CompleteStale CompleteStatus = "stale"
	// CompleteFailedPermanent means a failure report exhausted the retry
	// budget and the job is now failed-permanent.
	CompleteFailedPermanent CompleteStatus = "failed_permanent"
)

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID      string   `json:"id"`
	Spec    JobSpec  `json:"spec"`
	State   JobState `json:"state"`
	Attempt int      `json:"attempt"`
	Worker  string   `json:"worker,omitempty"`
	Output  string   `json:"output,omitempty"`
	LastErr string   `json:"last_error,omitempty"`
}

// WorkerStatus is the JSON view of a registered worker.
type WorkerStatus struct {
	Name     string  `json:"name"`
	Capacity int     `json:"capacity"`
	MemBytes uint64  `json:"mem_bytes,omitempty"`
	Active   int     `json:"active_leases"`
	Live     bool    `json:"live"`
	Ratio    float64 `json:"oversubscription_ratio"`
	// HeartbeatAgeMillis is how long ago the worker last spoke.
	HeartbeatAgeMillis int64 `json:"heartbeat_age_ms"`
}

// TenantStatus is the JSON view of one tenant's queue.
type TenantStatus struct {
	Tenant string `json:"tenant"`
	Queued int    `json:"queued"`
	Leased int    `json:"leased"`
	Quota  int    `json:"quota"`
}

// JobCounts summarizes jobs by state.
type JobCounts struct {
	Queued int `json:"queued"`
	Leased int `json:"leased"`
	Done   int `json:"done"`
	Failed int `json:"failed"`
}

// Counters is a snapshot of the coordinator's monotonic event counters
// (process-lifetime; they reset on restart — the journal carries state, not
// metrics).
type Counters struct {
	Submitted        int64 `json:"submitted"`
	QuotaRejections  int64 `json:"quota_rejections"`
	LeasesGranted    int64 `json:"leases_granted"`
	LeaseDeferrals   int64 `json:"lease_deferrals"`
	Renewals         int64 `json:"renewals"`
	LeasesExpired    int64 `json:"leases_expired"`
	Requeues         int64 `json:"requeues"`
	RetriesExhausted int64 `json:"retries_exhausted"`
	Completions      int64 `json:"completions"`
	Duplicates       int64 `json:"duplicates"`
	StaleReports     int64 `json:"stale_reports"`
	Mismatches       int64 `json:"mismatches"`
	WorkersDied      int64 `json:"workers_died"`
	WorkersRevived   int64 `json:"workers_revived"`
	OrphanedLeases   int64 `json:"orphaned_leases"`
}

// FleetState is the GET /v1/fleet payload: the whole fleet at a glance.
type FleetState struct {
	Workers  []WorkerStatus `json:"workers"`
	Tenants  []TenantStatus `json:"tenants"`
	Jobs     JobCounts      `json:"jobs"`
	Counters Counters       `json:"counters"`
	// JournalFailed says a journal append has failed: the coordinator
	// then refuses every submit, lease, completion and requeue, and
	// /healthz answers 503, until it is restarted on a working journal.
	JournalFailed bool `json:"journal_failed"`
}
