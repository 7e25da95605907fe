package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/jsonl"
)

// jobRec is the coordinator's in-memory record of one job. Guarded by
// Coordinator.mu.
type jobRec struct {
	ID      string
	Spec    JobSpec
	State   JobState
	Attempt int    // lease attempts issued so far; the current lease's number while leased
	Worker  string // current lease holder (leased) or completing worker (done)
	Output  string // recorded result (done)
	LastErr string // most recent attempt error / expiry reason

	Expiry    time.Time // lease expiry (leased only)
	NotBefore time.Time // retry-backoff gate (queued only)
}

// leasedTo reports whether worker holds j's current lease at attempt. Renew,
// Complete and the journal check all ask it.
func (j *jobRec) leasedTo(worker string, attempt int) bool {
	return j.State == JobLeased && j.Worker == worker && j.Attempt == attempt
}

// workerRec is the coordinator's soft-state record of one worker. Worker
// registration is not journaled: registry state is rebuilt by the workers
// themselves, which re-register whenever the coordinator answers
// ErrUnknownWorker.
type workerRec struct {
	Name     string
	Capacity int
	MemBytes uint64
	LastHB   time.Time
	Live     bool
	Active   map[string]*jobRec // jobs currently leased to this worker, by ID
}

// Coordinator owns the durable job queue and the lease protocol. All methods
// are safe for concurrent use; every public entry point first sweeps for
// expired leases and dead workers, so the protocol needs no background
// goroutine — time advances whenever anyone talks to the coordinator (and
// whenever Prometheus scrapes it).
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	ap         *jsonl.Appender // nil when running in-memory
	jobs       map[string]*jobRec
	queues     map[string][]*jobRec // per-tenant FIFO of queued jobs
	tenantsSeq []string             // tenants in first-seen order (fair-share ring)
	rrNext     int                  // fair-share ring position
	workers    map[string]*workerRec
	lastJobNum int64
	ctr        Counters
	closed     bool
}

// New builds a coordinator, replaying the journal at cfg.JournalPath if one
// is configured. Jobs that were leased when the previous coordinator died
// (orphaned leases) are requeued through the normal retry path, in
// submission order.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		jobs:    make(map[string]*jobRec),
		queues:  make(map[string][]*jobRec),
		workers: make(map[string]*workerRec),
	}
	if cfg.JournalPath != "" {
		ap, err := jsonl.Open(cfg.JournalPath, func(line []byte) error {
			var rec journalRec
			if err := json.Unmarshal(line, &rec); err != nil {
				return err
			}
			_, err := c.applyLocked(rec, c.cfg.now(), false)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		c.ap = ap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	var orphans []*jobRec
	for _, j := range c.jobs {
		if j.State == JobLeased {
			orphans = append(orphans, j)
		}
	}
	slices.SortFunc(orphans, bySubmission)
	for _, j := range orphans {
		c.logf("fleet: job %s attempt %d orphaned by restart (was on %s); requeueing", j.ID, j.Attempt, j.Worker)
		if err := c.requeueLocked(j, fmt.Sprintf("lease lost: coordinator restarted during attempt %d on worker %s", j.Attempt, j.Worker), now); err != nil {
			// Only a journaled coordinator can fail an append.
			return nil, errors.Join(fmt.Errorf("fleet: requeue orphaned job %s: %w", j.ID, err), c.ap.Close())
		}
		c.ctr.OrphanedLeases++
	}
	return c, nil
}

// JournalErr returns the journal append failure after which the
// coordinator refuses every change it would have to journal, or nil while
// its journal works or when it runs in memory.
func (c *Coordinator) JournalErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.journalErrLocked()
}

func (c *Coordinator) journalErrLocked() error {
	if c.ap == nil {
		return nil
	}
	return c.ap.Err()
}

// Close releases the journal. In-flight protocol state stays readable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.ap == nil {
		return nil
	}
	if err := c.ap.Close(); err != nil {
		return fmt.Errorf("fleet: close journal: %w", err)
	}
	return nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Printf(format, args...)
	}
}

// Register upserts a worker. Registration is idempotent and survives
// re-registration with new capacity; a worker that was declared dead comes
// back live.
func (c *Coordinator) Register(name string, capacity int, memBytes uint64) error {
	if !nameOK.MatchString(name) {
		return fmt.Errorf("fleet: worker name %q: want 1-64 chars of [A-Za-z0-9._-]", name)
	}
	if capacity < 1 || capacity > 1024 {
		return fmt.Errorf("fleet: worker %s capacity %d: want 1..1024", name, capacity)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	w := c.workers[name]
	if w == nil {
		// Born live so first contact is a registration, not a "revival".
		w = &workerRec{Name: name, Live: true, Active: make(map[string]*jobRec)}
		c.workers[name] = w
		c.logf("fleet: worker %s registered (capacity %d)", name, capacity)
	}
	w.Capacity = capacity
	w.MemBytes = memBytes
	c.touchWorkerLocked(w, now)
	return nil
}

// Heartbeat records that a worker is alive.
func (c *Coordinator) Heartbeat(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	w := c.workers[name]
	if w == nil {
		return fmt.Errorf("%w: %s", ErrUnknownWorker, name)
	}
	c.touchWorkerLocked(w, now)
	return nil
}

func (c *Coordinator) touchWorkerLocked(w *workerRec, now time.Time) {
	w.LastHB = now
	if !w.Live {
		w.Live = true
		c.ctr.WorkersRevived++
		c.logf("fleet: worker %s is back", w.Name)
	}
}

// Submit admits one job to the durable queue, subject to the tenant's
// admission quota over non-terminal jobs (its queue plus its leases). An
// experiment ID this binary does not register is refused here rather than
// admitted to burn every attempt on workers that cannot run it. The check
// is not in JobSpec.Validate, which journal replay also calls: a journal
// written by an older binary may name an experiment since removed.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	if _, ok := experiments.Lookup(spec.Experiment); !ok {
		return JobStatus{}, fmt.Errorf("fleet: unknown experiment %q", spec.Experiment)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	open := len(c.queues[spec.Tenant])
	for _, w := range c.workers {
		for _, j := range w.Active {
			if j.Spec.Tenant == spec.Tenant {
				open++
			}
		}
	}
	if open >= c.cfg.TenantQuota {
		c.ctr.QuotaRejections++
		return JobStatus{}, fmt.Errorf("%w: tenant %s has %d open jobs (quota %d)", ErrQuota, spec.Tenant, open, c.cfg.TenantQuota)
	}
	id := fmt.Sprintf("%s%d", jobIDPrefix, c.lastJobNum+1)
	j, err := c.applyLocked(journalRec{Op: "submit", ID: id, Spec: &spec}, now, true)
	if err != nil {
		return JobStatus{}, err
	}
	c.ctr.Submitted++
	return c.jobStatusLocked(j), nil
}

// Job returns the current status of one job.
func (c *Coordinator) Job(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(c.cfg.now())
	j := c.jobs[id]
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoSuchJob, id)
	}
	return c.jobStatusLocked(j), nil
}

func (c *Coordinator) jobStatusLocked(j *jobRec) JobStatus {
	return JobStatus{
		ID:      j.ID,
		Spec:    j.Spec,
		State:   j.State,
		Attempt: j.Attempt,
		Worker:  j.Worker,
		Output:  j.Output,
		LastErr: j.LastErr,
	}
}

// Lease hands the polling worker one eligible job under a fresh lease, or
// nil when there is nothing for it: queue empty, worker at capacity, or the
// poll is deferred because strictly less-loaded live workers can absorb the
// whole eligible queue (placement by oversubscription ratio — scarce jobs go
// to the least-loaded workers).
//
// The lease record is fsync'd before the grant returns, so attempt numbers
// are monotonic across coordinator crashes: a restarted coordinator can
// never hand out an attempt number an existing worker already holds.
func (c *Coordinator) Lease(workerName string) (*LeaseGrant, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	w := c.workers[workerName]
	if w == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorker, workerName)
	}
	c.touchWorkerLocked(w, now)
	if len(w.Active) >= w.Capacity {
		return nil, nil
	}
	eligible := c.eligibleLocked(now)
	if eligible == 0 {
		return nil, nil
	}
	if c.shouldDeferLocked(w, eligible) {
		c.ctr.LeaseDeferrals++
		return nil, nil
	}
	j := c.pickLocked(now)
	if j == nil {
		return nil, nil
	}
	if _, err := c.applyLocked(journalRec{Op: "lease", ID: j.ID, Attempt: j.Attempt + 1, Worker: w.Name}, now, true); err != nil {
		return nil, err
	}
	c.ctr.LeasesGranted++
	return &LeaseGrant{
		JobID:     j.ID,
		Attempt:   j.Attempt,
		Spec:      j.Spec,
		TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// shouldDeferLocked implements placement scoring: would granting to w leave
// it more oversubscribed than peers that could take the work instead? Each
// worker's post-grant oversubscription ratio is (active+1)/capacity; if the
// free slots of strictly better-scored live workers cover every eligible
// job, w's poll is deferred. Ties never defer each other, so the least-
// loaded workers always make progress and a deferral can never deadlock the
// queue.
func (c *Coordinator) shouldDeferLocked(w *workerRec, eligible int) bool {
	postW := float64(len(w.Active)+1) / float64(w.Capacity)
	betterFree := 0
	for _, v := range c.workers {
		if v == w || !v.Live || len(v.Active) >= v.Capacity {
			continue
		}
		postV := float64(len(v.Active)+1) / float64(v.Capacity)
		if postV < postW {
			betterFree += v.Capacity - len(v.Active)
		}
	}
	return betterFree >= eligible && betterFree > 0
}

// Renew extends the lease on (jobID, attempt) held by workerName. A renewal
// for an attempt that no longer holds the lease — it expired and was
// requeued, the job was re-leased elsewhere, or the coordinator restarted —
// fails with ErrStale, telling the worker to abandon the run.
func (c *Coordinator) Renew(workerName, jobID string, attempt int) (time.Time, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	if w := c.workers[workerName]; w != nil {
		c.touchWorkerLocked(w, now)
	}
	j := c.jobs[jobID]
	if j == nil {
		return time.Time{}, fmt.Errorf("%w: job %s is unknown", ErrStale, jobID)
	}
	if !j.leasedTo(workerName, attempt) {
		return time.Time{}, fmt.Errorf("%w: job %s attempt %d (current: %s attempt %d on %q)",
			ErrStale, jobID, attempt, j.State, j.Attempt, j.Worker)
	}
	j.Expiry = now.Add(c.cfg.LeaseTTL)
	c.ctr.Renewals++
	return j.Expiry, nil
}

// Complete reports the outcome of (jobID, attempt) from workerName,
// idempotently. errMsg == "" reports success with the rendered result in
// output; otherwise the attempt failed and the job is requeued (or, with
// the retry budget exhausted, failed permanently).
//
// Exactly-once results over at-least-once execution: only the current
// attempt of a live lease may record a result (the done record is fsync'd
// before the state flips); any report from a superseded attempt is
// classified CompleteStale and discarded; a repeat success report for a
// done job must match the recorded bytes exactly — a match is a counted
// duplicate, a mismatch is a refused determinism violation (ErrMismatch).
func (c *Coordinator) Complete(workerName, jobID string, attempt int, output, errMsg string) (CompleteStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	if w := c.workers[workerName]; w != nil {
		c.touchWorkerLocked(w, now)
	}
	j := c.jobs[jobID]
	if j == nil {
		return "", fmt.Errorf("%w: %s", ErrNoSuchJob, jobID)
	}
	if j.State == JobDone {
		if errMsg != "" {
			c.ctr.StaleReports++
			return CompleteStale, nil
		}
		if output == j.Output {
			c.ctr.Duplicates++
			c.logf("fleet: job %s: duplicate result from %s attempt %d, byte-identical as required", jobID, workerName, attempt)
			return CompleteDuplicate, nil
		}
		c.ctr.Mismatches++
		return "", fmt.Errorf("%w: job %s attempt %d from %s", ErrMismatch, jobID, attempt, workerName)
	}
	if !j.leasedTo(workerName, attempt) {
		c.ctr.StaleReports++
		return CompleteStale, nil
	}
	if errMsg != "" {
		c.logf("fleet: job %s attempt %d failed on %s: %s", jobID, attempt, workerName, errMsg)
		if err := c.requeueLocked(j, errMsg, now); err != nil {
			return "", err
		}
		if j.State == JobFailed {
			return CompleteFailedPermanent, nil
		}
		return CompleteRecorded, nil
	}
	if _, err := c.applyLocked(journalRec{Op: "done", ID: jobID, Attempt: attempt, Worker: workerName, Output: output}, now, true); err != nil {
		return "", err
	}
	c.ctr.Completions++
	return CompleteRecorded, nil
}

// State snapshots the whole fleet for GET /v1/fleet and /metrics.
func (c *Coordinator) State() FleetState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	st := FleetState{Counters: c.ctr, JournalFailed: c.journalErrLocked() != nil}
	for _, w := range c.workers {
		st.Workers = append(st.Workers, WorkerStatus{
			Name:               w.Name,
			Capacity:           w.Capacity,
			MemBytes:           w.MemBytes,
			Active:             len(w.Active),
			Live:               w.Live,
			Ratio:              float64(len(w.Active)) / float64(w.Capacity),
			HeartbeatAgeMillis: now.Sub(w.LastHB).Milliseconds(),
		})
	}
	sort.Slice(st.Workers, func(i, k int) bool { return st.Workers[i].Name < st.Workers[k].Name })
	leased := make(map[string]int)
	for _, j := range c.jobs {
		switch j.State {
		case JobQueued:
			st.Jobs.Queued++
		case JobLeased:
			st.Jobs.Leased++
			leased[j.Spec.Tenant]++
		case JobDone:
			st.Jobs.Done++
		case JobFailed:
			st.Jobs.Failed++
		}
	}
	for _, t := range c.tenantsSeq {
		st.Tenants = append(st.Tenants, TenantStatus{
			Tenant: t,
			Queued: len(c.queues[t]),
			Leased: leased[t],
			Quota:  c.cfg.TenantQuota,
		})
	}
	sort.Slice(st.Tenants, func(i, k int) bool { return st.Tenants[i].Tenant < st.Tenants[k].Tenant })
	return st
}

// sweepLocked advances the failure detectors: workers silent past the
// heartbeat timeout are declared dead, and leases that expired — or whose
// holder is dead, which expires them immediately rather than waiting out
// the TTL — are requeued. Called at every public entry point, so the
// protocol makes progress without a background ticker. It walks the
// workers' Active sets, which hold every leased job, so its cost follows the
// open leases, not every job the coordinator has held. The ended leases are
// requeued in submission order, not in map order, so the same calls journal
// the same records and leave the same queues on every run.
func (c *Coordinator) sweepLocked(now time.Time) {
	var ended []*jobRec
	for _, w := range c.workers {
		if w.Live && now.Sub(w.LastHB) > c.cfg.HeartbeatTimeout {
			w.Live = false
			c.ctr.WorkersDied++
			c.logf("fleet: worker %s declared dead (silent for %v)", w.Name, now.Sub(w.LastHB))
		}
		for _, j := range w.Active {
			if !w.Live || !now.Before(j.Expiry) {
				ended = append(ended, j)
			}
		}
	}
	slices.SortFunc(ended, bySubmission)
	for _, j := range ended {
		reason := fmt.Sprintf("lease expired during attempt %d on worker %s", j.Attempt, j.Worker)
		if !c.workers[j.Worker].Live {
			reason = fmt.Sprintf("worker %s died during attempt %d", j.Worker, j.Attempt)
		}
		c.logf("fleet: job %s: %s", j.ID, reason)
		if err := c.requeueLocked(j, reason, now); err != nil {
			c.logf("fleet: job %s stays leased: journaling its requeue failed: %v", j.ID, err)
			continue
		}
		c.ctr.LeasesExpired++
	}
}

// requeueLocked ends the current attempt with errMsg and either requeues
// the job behind an exponential-backoff gate or, with the retry budget
// spent, fails it permanently. The last error is preserved either way.
// Like Submit, Lease and Complete, it goes through applyLocked: when the
// append fails it changes nothing and returns the error, so the job stays
// leased in memory as the journal says it is. The appender then refuses
// every later append, so the coordinator makes no progress until it is
// restarted, and replay recovers the lease as an orphan.
func (c *Coordinator) requeueLocked(j *jobRec, errMsg string, now time.Time) error {
	rec := journalRec{Op: "retry", ID: j.ID, Attempt: j.Attempt, Err: errMsg}
	if j.Attempt >= c.cfg.MaxAttempts {
		rec.Op = "fail"
	}
	if _, err := c.applyLocked(rec, now, true); err != nil {
		return err
	}
	if rec.Op == "fail" {
		c.ctr.RetriesExhausted++
		c.logf("fleet: job %s failed permanently after %d attempts: %s", j.ID, j.Attempt, errMsg)
		return nil
	}
	c.ctr.Requeues++
	return nil
}

// backoff is the requeue delay after `attempts` consumed attempts:
// RetryBackoff×2^(attempts-1), capped at MaxBackoff. Deterministic — no
// jitter — because chaos runs must be reproducible from their seed.
func (c *Coordinator) backoff(attempts int) time.Duration {
	if attempts < 1 {
		attempts = 1
	}
	shift := attempts - 1
	if shift > 20 {
		shift = 20
	}
	d := c.cfg.RetryBackoff << shift
	if d <= 0 || d > c.cfg.MaxBackoff {
		d = c.cfg.MaxBackoff
	}
	return d
}

// enqueueLocked puts a queued job at the back of its tenant's FIFO with the
// given backoff gate.
func (c *Coordinator) enqueueLocked(j *jobRec, notBefore time.Time) {
	j.NotBefore = notBefore
	t := j.Spec.Tenant
	if _, seen := c.queues[t]; !seen {
		c.tenantsSeq = append(c.tenantsSeq, t)
	}
	c.queues[t] = append(c.queues[t], j)
}

// dequeueLocked removes a job from its tenant's queue if present.
func (c *Coordinator) dequeueLocked(j *jobRec) {
	t := j.Spec.Tenant
	q := c.queues[t]
	for i, cand := range q {
		if cand == j {
			c.queues[t] = append(q[:i], q[i+1:]...)
			return
		}
	}
}

// eligibleLocked counts queued jobs whose backoff gate has opened.
func (c *Coordinator) eligibleLocked(now time.Time) int {
	n := 0
	for _, q := range c.queues {
		for _, j := range q {
			if !now.Before(j.NotBefore) {
				n++
			}
		}
	}
	return n
}

// pickLocked dequeues fair-share: tenants are visited round-robin from
// where the last grant left off, and within a tenant the oldest eligible
// job wins. One tenant's burst therefore costs other tenants at most one
// position per grant, never the whole queue.
func (c *Coordinator) pickLocked(now time.Time) *jobRec {
	n := len(c.tenantsSeq)
	for i := 0; i < n; i++ {
		t := c.tenantsSeq[(c.rrNext+i)%n]
		for _, j := range c.queues[t] {
			if !now.Before(j.NotBefore) {
				c.rrNext = (c.rrNext + i + 1) % n
				return j
			}
		}
	}
	return nil
}
