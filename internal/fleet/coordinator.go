package fleet

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

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
	seq       int64     // submission order, for stable observability output
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
	Active   map[string]bool // job IDs currently leased to this worker
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
	seqCounter int64
	ctr        Counters
	closed     bool
}

// New builds a coordinator, replaying the journal at cfg.JournalPath if one
// is configured. Jobs that were leased when the previous coordinator died
// (orphaned leases) are requeued through the normal retry path.
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
			return c.replayRecLocked(rec)
		})
		if err != nil {
			return nil, fmt.Errorf("fleet: open journal: %w", err)
		}
		c.ap = ap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	for _, j := range c.jobs {
		if j.State != JobLeased {
			continue
		}
		c.ctr.OrphanedLeases++
		c.logf("fleet: job %s attempt %d orphaned by restart (was on %s); requeueing", j.ID, j.Attempt, j.Worker)
		c.requeueLocked(j, fmt.Sprintf("lease lost: coordinator restarted during attempt %d on worker %s", j.Attempt, j.Worker), now)
	}
	return c, nil
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

func (c *Coordinator) nextSeqLocked() int64 {
	c.seqCounter++
	return c.seqCounter
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
		w = &workerRec{Name: name, Live: true, Active: make(map[string]bool)}
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
// admission quota over non-terminal (queued + leased) jobs.
func (c *Coordinator) Submit(spec JobSpec) (JobStatus, error) {
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	open := 0
	for _, j := range c.jobs {
		if j.Spec.Tenant == spec.Tenant && !j.State.Terminal() {
			open++
		}
	}
	if open >= c.cfg.TenantQuota {
		c.ctr.QuotaRejections++
		return JobStatus{}, fmt.Errorf("%w: tenant %s has %d open jobs (quota %d)", ErrQuota, spec.Tenant, open, c.cfg.TenantQuota)
	}
	id := fmt.Sprintf("%s%d", jobIDPrefix, c.lastJobNum+1)
	if err := c.appendRecLocked(journalRec{Op: "submit", ID: id, Spec: &spec}); err != nil {
		return JobStatus{}, err
	}
	c.lastJobNum++
	j := &jobRec{ID: id, Spec: spec, State: JobQueued, seq: c.nextSeqLocked()}
	c.jobs[id] = j
	c.enqueueLocked(j, now)
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
	attempt := j.Attempt + 1
	if err := c.appendRecLocked(journalRec{Op: "lease", ID: j.ID, Attempt: attempt, Worker: w.Name}); err != nil {
		return nil, err
	}
	c.dequeueLocked(j)
	j.State = JobLeased
	j.Attempt = attempt
	j.Worker = w.Name
	j.Expiry = now.Add(c.cfg.LeaseTTL)
	j.NotBefore = time.Time{}
	w.Active[j.ID] = true
	c.ctr.LeasesGranted++
	return &LeaseGrant{
		JobID:     j.ID,
		Attempt:   attempt,
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
	if j.State != JobLeased || j.Worker != workerName || j.Attempt != attempt {
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
	if j.State != JobLeased || j.Worker != workerName || j.Attempt != attempt {
		c.ctr.StaleReports++
		return CompleteStale, nil
	}
	if errMsg != "" {
		c.logf("fleet: job %s attempt %d failed on %s: %s", jobID, attempt, workerName, errMsg)
		c.requeueLocked(j, errMsg, now)
		if j.State == JobFailed {
			return CompleteFailedPermanent, nil
		}
		return CompleteRecorded, nil
	}
	if err := c.appendRecLocked(journalRec{Op: "done", ID: jobID, Attempt: attempt, Worker: workerName, Output: output}); err != nil {
		return "", err
	}
	if w := c.workers[workerName]; w != nil {
		delete(w.Active, jobID)
	}
	j.State = JobDone
	j.Output = output
	j.LastErr = ""
	c.ctr.Completions++
	return CompleteRecorded, nil
}

// State snapshots the whole fleet for GET /v1/fleet and /metrics.
func (c *Coordinator) State() FleetState {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	c.sweepLocked(now)
	st := FleetState{Counters: c.ctr}
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
// protocol makes progress without a background ticker.
func (c *Coordinator) sweepLocked(now time.Time) {
	for _, w := range c.workers {
		if w.Live && now.Sub(w.LastHB) > c.cfg.HeartbeatTimeout {
			w.Live = false
			c.ctr.WorkersDied++
			c.logf("fleet: worker %s declared dead (silent for %v)", w.Name, now.Sub(w.LastHB))
		}
	}
	for _, j := range c.jobs {
		if j.State != JobLeased {
			continue
		}
		w := c.workers[j.Worker]
		holderDead := w == nil || !w.Live
		if !holderDead && now.Before(j.Expiry) {
			continue
		}
		c.ctr.LeasesExpired++
		reason := fmt.Sprintf("lease expired during attempt %d on worker %s", j.Attempt, j.Worker)
		if holderDead {
			reason = fmt.Sprintf("worker %s died during attempt %d", j.Worker, j.Attempt)
		}
		c.logf("fleet: job %s: %s", j.ID, reason)
		c.requeueLocked(j, reason, now)
	}
}

// requeueLocked ends the current attempt with errMsg and either requeues
// the job behind an exponential-backoff gate or, with the retry budget
// spent, fails it permanently. The last error is preserved either way.
func (c *Coordinator) requeueLocked(j *jobRec, errMsg string, now time.Time) {
	if w := c.workers[j.Worker]; w != nil {
		delete(w.Active, j.ID)
	}
	j.LastErr = errMsg
	j.Expiry = time.Time{}
	if j.Attempt >= c.cfg.MaxAttempts {
		if err := c.appendRecLocked(journalRec{Op: "fail", ID: j.ID, Attempt: j.Attempt, Err: errMsg}); err != nil {
			c.logf("fleet: job %s: journaling permanent failure: %v", j.ID, err)
		}
		j.State = JobFailed
		j.Worker = ""
		c.ctr.RetriesExhausted++
		c.logf("fleet: job %s failed permanently after %d attempts: %s", j.ID, j.Attempt, errMsg)
		return
	}
	if err := c.appendRecLocked(journalRec{Op: "retry", ID: j.ID, Attempt: j.Attempt, Err: errMsg}); err != nil {
		c.logf("fleet: job %s: journaling retry: %v", j.ID, err)
	}
	j.State = JobQueued
	j.Worker = ""
	c.ctr.Requeues++
	c.enqueueLocked(j, now.Add(c.backoff(j.Attempt)))
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
