package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock drives the coordinator's injectable clock so lease expiry,
// heartbeat timeouts, and backoff gates are tested deterministically, with
// no sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Unix(1_000_000, 0)}
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.t
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.t = f.t.Add(d)
	f.mu.Unlock()
}

// testConfig is the protocol-test baseline: short, round numbers so the
// assertions read as the state machine they exercise.
func testConfig(clk *fakeClock) Config {
	return Config{
		LeaseTTL:         10 * time.Second,
		HeartbeatTimeout: 30 * time.Second,
		MaxAttempts:      3,
		RetryBackoff:     1 * time.Second,
		MaxBackoff:       8 * time.Second,
		TenantQuota:      16,
		now:              clk.Now,
	}
}

func newTestCoord(t *testing.T, cfg Config) *Coordinator {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := c.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return c
}

func mustRegister(t *testing.T, c *Coordinator, name string, capacity int) {
	t.Helper()
	if err := c.Register(name, capacity, 0); err != nil {
		t.Fatalf("Register(%s): %v", name, err)
	}
}

func mustSubmit(t *testing.T, c *Coordinator, tenant, exp string) JobStatus {
	t.Helper()
	st, err := c.Submit(JobSpec{Tenant: tenant, Experiment: exp, Quick: true})
	if err != nil {
		t.Fatalf("Submit(%s/%s): %v", tenant, exp, err)
	}
	return st
}

func mustLease(t *testing.T, c *Coordinator, worker string) *LeaseGrant {
	t.Helper()
	g, err := c.Lease(worker)
	if err != nil {
		t.Fatalf("Lease(%s): %v", worker, err)
	}
	if g == nil {
		t.Fatalf("Lease(%s): expected a grant, got none", worker)
	}
	return g
}

func TestLeaseLifecycleExactlyOnce(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	mustRegister(t, c, "w1", 2)
	st := mustSubmit(t, c, "acme", "T3")

	g := mustLease(t, c, "w1")
	if g.JobID != st.ID || g.Attempt != 1 {
		t.Fatalf("grant = %+v, want job %s attempt 1", g, st.ID)
	}
	if g.TTLMillis != 10_000 {
		t.Fatalf("grant TTL = %dms, want 10000", g.TTLMillis)
	}

	cs, err := c.Complete("w1", g.JobID, g.Attempt, "RESULT", "")
	if err != nil || cs != CompleteRecorded {
		t.Fatalf("Complete = %v, %v; want recorded", cs, err)
	}
	job, err := c.Job(g.JobID)
	if err != nil || job.State != JobDone || job.Output != "RESULT" {
		t.Fatalf("job after complete = %+v, %v", job, err)
	}

	// Idempotent re-report with identical bytes: counted duplicate.
	cs, err = c.Complete("w1", g.JobID, g.Attempt, "RESULT", "")
	if err != nil || cs != CompleteDuplicate {
		t.Fatalf("duplicate Complete = %v, %v; want duplicate", cs, err)
	}
	// Re-report with different bytes: refused determinism violation.
	if _, err := c.Complete("w1", g.JobID, g.Attempt, "DIFFERENT", ""); !errors.Is(err, ErrMismatch) {
		t.Fatalf("mismatched Complete error = %v, want ErrMismatch", err)
	}
	ctr := c.State().Counters
	if ctr.Completions != 1 || ctr.Duplicates != 1 || ctr.Mismatches != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestStaleAttemptRejectedAfterExpiry(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	mustRegister(t, c, "w1", 1)
	mustRegister(t, c, "w2", 1)
	st := mustSubmit(t, c, "acme", "T3")

	g1 := mustLease(t, c, "w1")

	// The lease expires while w1 is alive but silent about this job (it
	// never renews — e.g. the sim stopped crossing checkpoints). Keep both
	// workers inside the heartbeat window so only the lease dies.
	clk.Advance(11 * time.Second)
	if err := c.Heartbeat("w1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}

	job, err := c.Job(st.ID)
	if err != nil || job.State != JobQueued || job.Attempt != 1 {
		t.Fatalf("job after expiry = %+v, %v; want queued attempt 1", job, err)
	}
	if !strings.Contains(job.LastErr, "lease expired") {
		t.Fatalf("LastErr = %q, want expiry reason", job.LastErr)
	}

	// The stale holder's renewal and result are both rejected.
	if _, err := c.Renew("w1", g1.JobID, g1.Attempt); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Renew error = %v, want ErrStale", err)
	}
	cs, err := c.Complete("w1", g1.JobID, g1.Attempt, "LATE", "")
	if err != nil || cs != CompleteStale {
		t.Fatalf("stale Complete = %v, %v; want stale", cs, err)
	}

	// After the backoff gate the job re-leases as attempt 2 elsewhere and
	// completes; the very late original report is then a byte-compare.
	clk.Advance(2 * time.Second)
	g2 := mustLease(t, c, "w2")
	if g2.JobID != st.ID || g2.Attempt != 2 {
		t.Fatalf("re-grant = %+v, want job %s attempt 2", g2, st.ID)
	}
	if cs, err := c.Complete("w2", g2.JobID, g2.Attempt, "OUT", ""); err != nil || cs != CompleteRecorded {
		t.Fatalf("Complete attempt 2 = %v, %v", cs, err)
	}
	if cs, err := c.Complete("w1", g1.JobID, g1.Attempt, "OUT", ""); err != nil || cs != CompleteDuplicate {
		t.Fatalf("late identical report = %v, %v; want duplicate", cs, err)
	}
	ctr := c.State().Counters
	if ctr.LeasesExpired != 1 || ctr.Requeues != 1 || ctr.StaleReports != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestDoubleRenewalRace(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	mustRegister(t, c, "w1", 1)
	st := mustSubmit(t, c, "acme", "T3")
	g := mustLease(t, c, "w1")

	// Two renewals of the same live attempt (the race: checkpoint-driven
	// renewal firing twice) are both accepted and idempotent.
	e1, err := c.Renew("w1", g.JobID, g.Attempt)
	if err != nil {
		t.Fatalf("first Renew: %v", err)
	}
	e2, err := c.Renew("w1", g.JobID, g.Attempt)
	if err != nil {
		t.Fatalf("second Renew: %v", err)
	}
	if e2.Before(e1) {
		t.Fatalf("second renewal moved expiry backwards: %v then %v", e1, e2)
	}

	// A renewal for a different attempt number never extends anything.
	if _, err := c.Renew("w1", g.JobID, g.Attempt+1); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-attempt Renew error = %v, want ErrStale", err)
	}
	// Nor does a renewal from a worker that does not hold the lease.
	mustRegister(t, c, "w2", 1)
	if _, err := c.Renew("w2", g.JobID, g.Attempt); !errors.Is(err, ErrStale) {
		t.Fatalf("wrong-holder Renew error = %v, want ErrStale", err)
	}

	// Renewal keeps the lease alive across what would have been expiry.
	clk.Advance(8 * time.Second)
	if _, err := c.Renew("w1", g.JobID, g.Attempt); err != nil {
		t.Fatalf("Renew at 8s: %v", err)
	}
	clk.Advance(8 * time.Second)
	job, err := c.Job(st.ID)
	if err != nil || job.State != JobLeased {
		t.Fatalf("job after renewed 16s = %+v, %v; want still leased", job, err)
	}
	// The race loser after expiry: once the lease finally lapses and the
	// job is re-leased, the old attempt's renewal is stale.
	clk.Advance(11 * time.Second)
	if err := c.Heartbeat("w1"); err != nil {
		t.Fatalf("Heartbeat: %v", err)
	}
	clk.Advance(2 * time.Second)
	g2 := mustLease(t, c, "w1")
	if g2.Attempt != 2 {
		t.Fatalf("re-grant attempt = %d, want 2", g2.Attempt)
	}
	if _, err := c.Renew("w1", g.JobID, g.Attempt); !errors.Is(err, ErrStale) {
		t.Fatalf("old-attempt Renew after re-lease = %v, want ErrStale", err)
	}
	if _, err := c.Renew("w1", g2.JobID, g2.Attempt); err != nil {
		t.Fatalf("current-attempt Renew: %v", err)
	}
}

func TestRetryBudgetExhaustionPreservesLastError(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.MaxAttempts = 2
	c := newTestCoord(t, cfg)
	mustRegister(t, c, "w1", 1)
	st := mustSubmit(t, c, "acme", "T3")

	g := mustLease(t, c, "w1")
	if cs, err := c.Complete("w1", g.JobID, 1, "", "boom attempt 1"); err != nil || cs != CompleteRecorded {
		t.Fatalf("fail report 1 = %v, %v", cs, err)
	}
	job, _ := c.Job(st.ID)
	if job.State != JobQueued || job.LastErr != "boom attempt 1" {
		t.Fatalf("after first failure: %+v", job)
	}

	// Backoff gate: not eligible yet...
	if g, err := c.Lease("w1"); err != nil || g != nil {
		t.Fatalf("lease inside backoff = %+v, %v; want none", g, err)
	}
	// ...eligible after RetryBackoff.
	clk.Advance(2 * time.Second)
	g2 := mustLease(t, c, "w1")
	if g2.Attempt != 2 {
		t.Fatalf("second grant attempt = %d, want 2", g2.Attempt)
	}
	cs, err := c.Complete("w1", g2.JobID, 2, "", "boom attempt 2")
	if err != nil || cs != CompleteFailedPermanent {
		t.Fatalf("fail report 2 = %v, %v; want failed_permanent", cs, err)
	}
	job, _ = c.Job(st.ID)
	if job.State != JobFailed || job.LastErr != "boom attempt 2" || job.Attempt != 2 {
		t.Fatalf("after exhaustion: %+v", job)
	}
	// The failed job never leases again; a late report is stale.
	clk.Advance(time.Minute)
	if g, err := c.Lease("w1"); err != nil || g != nil {
		t.Fatalf("lease after permanent failure = %+v, %v; want none", g, err)
	}
	if cs, err := c.Complete("w1", st.ID, 2, "LATE", ""); err != nil || cs != CompleteStale {
		t.Fatalf("report after permanent failure = %v, %v; want stale", cs, err)
	}
	ctr := c.State().Counters
	if ctr.RetriesExhausted != 1 || ctr.Requeues != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
}

func TestExponentialBackoffDoubles(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	if got := c.backoff(1); got != 1*time.Second {
		t.Fatalf("backoff(1) = %v", got)
	}
	if got := c.backoff(2); got != 2*time.Second {
		t.Fatalf("backoff(2) = %v", got)
	}
	if got := c.backoff(3); got != 4*time.Second {
		t.Fatalf("backoff(3) = %v", got)
	}
	// Capped at MaxBackoff, including far past the doubling range.
	if got := c.backoff(5); got != 8*time.Second {
		t.Fatalf("backoff(5) = %v, want cap", got)
	}
	if got := c.backoff(64); got != 8*time.Second {
		t.Fatalf("backoff(64) = %v, want cap", got)
	}
}

func TestTenantQuota(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.TenantQuota = 2
	c := newTestCoord(t, cfg)
	mustRegister(t, c, "w1", 4)

	mustSubmit(t, c, "acme", "T3")
	st2 := mustSubmit(t, c, "acme", "T4")
	if _, err := c.Submit(JobSpec{Tenant: "acme", Experiment: "T5", Quick: true}); !errors.Is(err, ErrQuota) {
		t.Fatalf("third submit error = %v, want ErrQuota", err)
	}
	// Another tenant is not affected by acme's quota.
	mustSubmit(t, c, "zeta", "T3")

	// A terminal job frees quota; a leased one does not.
	g := mustLease(t, c, "w1") // fair-share: acme first
	if g.Spec.Tenant != "acme" {
		t.Fatalf("first grant tenant = %s", g.Spec.Tenant)
	}
	if _, err := c.Submit(JobSpec{Tenant: "acme", Experiment: "T5", Quick: true}); !errors.Is(err, ErrQuota) {
		t.Fatalf("submit with leased job error = %v, want ErrQuota", err)
	}
	if cs, err := c.Complete("w1", g.JobID, g.Attempt, "OUT", ""); err != nil || cs != CompleteRecorded {
		t.Fatalf("Complete = %v, %v", cs, err)
	}
	mustSubmit(t, c, "acme", "T5")
	if got := c.State().Counters.QuotaRejections; got != 2 {
		t.Fatalf("QuotaRejections = %d, want 2", got)
	}
	_ = st2
}

func TestFairShareDequeueRoundRobin(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	mustRegister(t, c, "w1", 10)
	// Tenant a floods the queue before b and c submit one job each.
	for i := 0; i < 4; i++ {
		mustSubmit(t, c, "a", "T3")
	}
	mustSubmit(t, c, "b", "T3")
	mustSubmit(t, c, "cc", "T3")

	var order []string
	for i := 0; i < 6; i++ {
		g := mustLease(t, c, "w1")
		order = append(order, g.Spec.Tenant)
	}
	want := []string{"a", "b", "cc", "a", "a", "a"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("dequeue order = %v, want %v", order, want)
	}
	if g, err := c.Lease("w1"); err != nil || g != nil {
		t.Fatalf("lease on empty queue = %+v, %v", g, err)
	}
}

func TestPlacementDefersOverloadedWorker(t *testing.T) {
	clk := newFakeClock()
	c := newTestCoord(t, testConfig(clk))
	mustRegister(t, c, "big", 4)
	mustRegister(t, c, "small", 1)
	mustSubmit(t, c, "acme", "T3")

	// One eligible job; granting to small would load it to 1.0 while big
	// (post-grant 0.25) could absorb the whole queue — small is deferred.
	if g, err := c.Lease("small"); err != nil || g != nil {
		t.Fatalf("overloaded poll = %+v, %v; want deferral", g, err)
	}
	if got := c.State().Counters.LeaseDeferrals; got != 1 {
		t.Fatalf("LeaseDeferrals = %d, want 1", got)
	}
	// The better-placed worker gets the job.
	g := mustLease(t, c, "big")
	if g.JobID == "" {
		t.Fatalf("big got no grant")
	}

	// With more eligible jobs than the better workers' free slots, the
	// smaller worker is granted rather than starved.
	for i := 0; i < 5; i++ {
		mustSubmit(t, c, "acme", "T4")
	}
	if g := mustLease(t, c, "small"); g.JobID == "" {
		t.Fatalf("small got no grant with deep queue")
	}
	// And once the only other worker is dead, deferral never blocks: the
	// surviving worker takes everything.
	mustSubmit(t, c, "acme", "T5")
	clk.Advance(31 * time.Second) // heartbeat timeout: big goes dead
	if err := c.Heartbeat("small"); errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("small unknown: %v", err)
	}
	if g := mustLease(t, c, "small"); g.JobID == "" {
		t.Fatalf("sole survivor got no grant")
	}
}

func TestWorkerDeathExpiresLeasesImmediately(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	// A long TTL so heartbeat-based death detection, not lease expiry, is
	// what frees the job: the lease would stay valid until t+60s, but the
	// holder's silence is noticed at t+30s.
	cfg.LeaseTTL = 60 * time.Second
	cfg.HeartbeatTimeout = 30 * time.Second
	c := newTestCoord(t, cfg)
	mustRegister(t, c, "w1", 2)
	mustRegister(t, c, "w2", 2)
	st := mustSubmit(t, c, "acme", "T3")
	g := mustLease(t, c, "w1")
	_ = g

	// w1 goes silent; w2 keeps talking.
	clk.Advance(20 * time.Second)
	if err := c.Heartbeat("w2"); err != nil {
		t.Fatalf("Heartbeat(w2): %v", err)
	}
	clk.Advance(11 * time.Second) // w1 silent 31s > 30s; lease TTL still has 29s left
	if err := c.Heartbeat("w2"); err != nil {
		t.Fatalf("Heartbeat(w2): %v", err)
	}
	job, _ := c.Job(st.ID)
	if job.State != JobQueued || !strings.Contains(job.LastErr, "died") {
		t.Fatalf("job after worker death = %+v; want queued with death reason", job)
	}
	ctr := c.State().Counters
	if ctr.WorkersDied != 1 || ctr.LeasesExpired != 1 {
		t.Fatalf("counters = %+v", ctr)
	}
	// The dead worker's next call revives it.
	if err := c.Heartbeat("w1"); err != nil {
		t.Fatalf("Heartbeat(w1): %v", err)
	}
	if got := c.State().Counters.WorkersRevived; got == 0 {
		t.Fatalf("worker not revived")
	}
}

// A requeue whose journal append fails changes nothing in memory, as a
// failed Submit, Lease or Complete does: the expired job stays leased to its
// worker, uncounted, and the appender refuses every later append. After a
// restart, replay recovers the lease as an orphan. Before, the failed retry
// append still requeued the job, so the next Lease could journal attempt 2
// right after lease 1 — a journal that replay must refuse.
func TestRequeueAppendFailureChangesNothing(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "fleet.journal")
	cfg := testConfig(clk)
	cfg.JournalPath = path
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, c, "w1", 1)
	st := mustSubmit(t, c, "acme", "T3")
	g := mustLease(t, c, "w1")
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Break the journal: every append from here on fails.
	c.ap.Close()
	clk.Advance(cfg.LeaseTTL + time.Second)
	fs := c.State()
	if fs.Counters.LeasesExpired != 0 || fs.Counters.Requeues != 0 {
		t.Fatalf("counters after a failed requeue = %+v, want no expiry or requeue counted", fs.Counters)
	}
	job, err := c.Job(st.ID)
	if err != nil || job.State != JobLeased || job.Attempt != g.Attempt || job.Worker != "w1" {
		t.Fatalf("job after a failed requeue = %+v, %v; want still leased to w1 at attempt %d", job, err, g.Attempt)
	}
	if _, err := c.Complete("w1", g.JobID, g.Attempt, "", "boom"); err == nil {
		t.Fatal("a failed attempt was recorded without a journal")
	}
	if job, _ := c.Job(st.ID); job.State != JobLeased {
		t.Fatalf("job after an unjournaled failure report is %s, want leased", job.State)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("journal changed after the failure: %q, %v; want %q", after, err, before)
	}

	// Restart: replay finds the lease and requeues it as an orphan.
	c2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	job, err = c2.Job(st.ID)
	if err != nil || job.State != JobQueued || job.Attempt != g.Attempt {
		t.Fatalf("job after restart = %+v, %v; want queued after attempt %d", job, err, g.Attempt)
	}
	if n := c2.State().Counters.OrphanedLeases; n != 1 {
		t.Fatalf("restart recovered %d orphaned leases, want 1", n)
	}
}

// TestJournalFailureSurfaces breaks the journal as
// TestRequeueAppendFailureChangesNothing does and requires the coordinator
// to say so once an append has failed: /healthz answers 503, and /v1/fleet
// and /metrics carry the journal-failed gauge. Closing the file alone
// fails nothing; the failure is the first append after it.
func TestJournalFailureSurfaces(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.JournalPath = filepath.Join(t.TempDir(), "fleet.journal")
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec
	}
	check := func(when string, failed bool) {
		t.Helper()
		// /v1/fleet first: its sweep is what requeues an expired lease.
		var st FleetState
		if rec := get("/v1/fleet"); rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &st) != nil || st.JournalFailed != failed {
			t.Fatalf("%s: /v1/fleet answered %d %s, want journal_failed %v", when, rec.Code, rec.Body, failed)
		}
		want := "uvmfleet_journal_failed 0\n"
		if failed {
			want = "uvmfleet_journal_failed 1\n"
		}
		if rec := get("/metrics"); !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("%s: /metrics has no %q:\n%s", when, want, rec.Body)
		}
		code := http.StatusOK
		if failed {
			code = http.StatusServiceUnavailable
		}
		if rec := get("/healthz"); rec.Code != code {
			t.Fatalf("%s: /healthz answered %d %s, want %d", when, rec.Code, rec.Body, code)
		}
	}
	check("at open", false)
	mustRegister(t, c, "w1", 1)
	mustSubmit(t, c, "acme", "T3")
	mustLease(t, c, "w1")
	c.ap.Close()
	check("with the journal closed", false)
	clk.Advance(cfg.LeaseTTL + time.Second)
	check("after the requeue failed to append", true)
	if c.JournalErr() == nil {
		t.Fatal("JournalErr is nil after a failed append")
	}
}

func TestJournalReplayAcrossRestart(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.journal")

	cfg := testConfig(clk)
	cfg.JournalPath = path
	c1, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	mustRegister(t, c1, "w1", 4)
	st1 := mustSubmit(t, c1, "acme", "T3")
	st2 := mustSubmit(t, c1, "acme", "T4")
	st3 := mustSubmit(t, c1, "acme", "T5")
	g1 := mustLease(t, c1, "w1") // fj-1
	if g1.JobID != st1.ID {
		t.Fatalf("first grant = %s, want %s", g1.JobID, st1.ID)
	}
	if cs, err := c1.Complete("w1", g1.JobID, 1, "OUTPUT-1", ""); err != nil || cs != CompleteRecorded {
		t.Fatalf("Complete = %v, %v", cs, err)
	}
	g2 := mustLease(t, c1, "w1") // fj-2, attempt 1, crash while leased
	if g2.JobID != st2.ID {
		t.Fatalf("second grant = %s, want %s", g2.JobID, st2.ID)
	}
	// Crash: no Close. The appender's records are already fsync'd.

	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("New after crash: %v", err)
	}
	t.Cleanup(func() {
		if err := c2.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})

	done, err := c2.Job(st1.ID)
	if err != nil || done.State != JobDone || done.Output != "OUTPUT-1" {
		t.Fatalf("done job after restart = %+v, %v", done, err)
	}
	orphan, err := c2.Job(st2.ID)
	if err != nil || orphan.State != JobQueued || orphan.Attempt != 1 {
		t.Fatalf("orphaned job after restart = %+v, %v; want queued attempt 1", orphan, err)
	}
	if !strings.Contains(orphan.LastErr, "coordinator restarted") {
		t.Fatalf("orphan LastErr = %q", orphan.LastErr)
	}
	queued, err := c2.Job(st3.ID)
	if err != nil || queued.State != JobQueued || queued.Attempt != 0 {
		t.Fatalf("queued job after restart = %+v, %v", queued, err)
	}
	if got := c2.State().Counters.OrphanedLeases; got != 1 {
		t.Fatalf("OrphanedLeases = %d, want 1", got)
	}

	// Job IDs never recycle across restarts.
	st4 := mustSubmit(t, c2, "acme", "T6")
	if st4.ID == st1.ID || st4.ID == st2.ID || st4.ID == st3.ID {
		t.Fatalf("recycled job ID %s", st4.ID)
	}

	// The stale attempt from before the crash cannot record a result; the
	// orphan re-leases with a monotonically advanced attempt number.
	if cs, err := c2.Complete("w1", g2.JobID, g2.Attempt, "STALE-OUT", ""); err != nil || cs != CompleteStale {
		t.Fatalf("pre-crash attempt report = %v, %v; want stale", cs, err)
	}
	mustRegister(t, c2, "w1", 4)
	clk.Advance(2 * time.Second) // open the orphan's backoff gate
	seen := map[string]int{}
	for i := 0; i < 3; i++ {
		g := mustLease(t, c2, "w1")
		seen[g.JobID] = g.Attempt
	}
	if seen[st2.ID] != 2 {
		t.Fatalf("orphan re-lease attempt = %d, want 2 (grants: %v)", seen[st2.ID], seen)
	}
}

func TestJournalInteriorCorruptionIsHardError(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.journal")
	good := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}`
	tail := `{"op":"submit","id":"fj-2","spec":{"tenant":"a","experiment":"T4","quick":true}}`
	if err := os.WriteFile(path, []byte(good+"\n"+"GARBAGE{{{\n"+tail+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(clk)
	cfg.JournalPath = path
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "corrupt record") {
		t.Fatalf("New on interior corruption = %v, want corrupt-record error", err)
	}

	// Semantically impossible interior records are corruption too.
	if err := os.WriteFile(path, []byte(`{"op":"done","id":"fj-9","attempt":1}`+"\n"+good+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Fatalf("New on impossible interior record succeeded")
	}
}

func TestJournalTornTailIsRepaired(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.journal")
	good := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}`
	// A torn final line: no terminating newline.
	if err := os.WriteFile(path, []byte(good+"\n"+`{"op":"sub`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(clk)
	cfg.JournalPath = path
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New on torn tail: %v", err)
	}
	if _, err := c.Job("fj-1"); err != nil {
		t.Fatalf("surviving job lost: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// A complete but undecodable final line is the same crash signature.
	if err := os.WriteFile(path, []byte(good+"\n"+"NOT JSON\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(cfg)
	if err != nil {
		t.Fatalf("New on undecodable final line: %v", err)
	}
	if err := c2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// A complete final record that fails replay was written whole, so it is
// corruption, not a torn write: New fails as it does for the same record
// one line earlier, and the acknowledged records stay on disk.
func TestJournalRejectedFinalRecordFailsOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.journal")
	content := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}` + "\n" +
		`{"op":"lease","id":"fj-9","attempt":1,"worker":"w"}` + "\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(newFakeClock())
	cfg.JournalPath = path
	if c, err := New(cfg); err == nil || !strings.Contains(err.Error(), "lease for unknown job fj-9") {
		if c != nil {
			c.Close()
		}
		t.Fatalf("New on a rejected final record = %v, want the lease-for-unknown-job error", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != content {
		t.Fatalf("journal after the refused open = %q, %v; want it untouched", got, err)
	}
}

// Replay accepts retry, done and fail only as the live coordinator writes
// them: to end the current lease, at its attempt, and done only from the
// lease holder. Any other such record is corruption: New fails and leaves
// the journal untouched. The first journal used to open with fj-1 done at
// attempt 0 and queued twice, so Lease handed the done job out again.
func TestJournalRefusesTransitionsWithoutLease(t *testing.T) {
	submit := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"T3","quick":true}}` + "\n"
	lease := `{"op":"lease","id":"fj-1","attempt":1,"worker":"w"}` + "\n"
	for name, tail := range map[string]string{
		"retry and done while queued": `{"op":"retry","id":"fj-1","attempt":0,"err":"x"}` + "\n" +
			`{"op":"done","id":"fj-1","attempt":1,"worker":"w","output":"OUT"}` + "\n",
		"fail while queued":        `{"op":"fail","id":"fj-1","attempt":0,"err":"x"}` + "\n",
		"done for a later attempt": lease + `{"op":"done","id":"fj-1","attempt":2,"worker":"w","output":"OUT"}` + "\n",
		"done from another worker": lease + `{"op":"done","id":"fj-1","attempt":1,"worker":"v","output":"OUT"}` + "\n",
		"retry twice":              lease + strings.Repeat(`{"op":"retry","id":"fj-1","attempt":1,"err":"x"}`+"\n", 2),
		// The live Lease grants only queued jobs; a second lease would
		// silently supersede the first.
		"lease while leased": lease + `{"op":"lease","id":"fj-1","attempt":2,"worker":"v"}` + "\n",
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "fleet.journal")
			content := submit + tail
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := testConfig(newFakeClock())
			cfg.JournalPath = path
			if c, err := New(cfg); err == nil {
				st, _ := c.Job("fj-1")
				c.Close()
				t.Fatalf("New opened the journal; fj-1 is %s at attempt %d", st.State, st.Attempt)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != content {
				t.Fatalf("journal after the refused open = %q, %v; want it untouched", got, err)
			}
		})
	}
}

// An experiment ID this binary does not register is refused at Submit, over
// the API and over HTTP (400), before anything is journaled or counted, so
// it cannot burn MaxAttempts leases on workers that cannot run it.
func TestSubmitRefusesUnknownExperiment(t *testing.T) {
	clk := newFakeClock()
	cfg := testConfig(clk)
	cfg.JournalPath = filepath.Join(t.TempDir(), "fleet.journal")
	c := newTestCoord(t, cfg)

	_, err := c.Submit(JobSpec{Tenant: "t", Experiment: "NOPE"})
	if err == nil || !strings.Contains(err.Error(), `"NOPE"`) {
		t.Fatalf("Submit(NOPE) error = %v, want one naming the experiment", err)
	}
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs",
		strings.NewReader(`{"tenant":"t","experiment":"NOPE","quick":true}`)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("POST /v1/jobs NOPE = %d, want 400", rec.Code)
	}
	if got := c.State().Counters.Submitted; got != 0 {
		t.Fatalf("Counters.Submitted = %d after refused submits, want 0", got)
	}
	if b, err := os.ReadFile(cfg.JournalPath); err != nil || len(b) != 0 {
		t.Fatalf("journal after refused submits = %q, %v; want empty", b, err)
	}
	// The refusal consumed no job ID.
	if st := mustSubmit(t, c, "t", "T3"); st.ID != "fj-1" {
		t.Fatalf("first admitted job = %s, want fj-1", st.ID)
	}
}

// Replay does not re-check experiment IDs: a journal written by a binary
// that registered an experiment since removed still opens, and the job is
// restored as it was.
func TestJournalReplayKeepsUnregisteredExperiment(t *testing.T) {
	clk := newFakeClock()
	path := filepath.Join(t.TempDir(), "fleet.journal")
	rec := `{"op":"submit","id":"fj-1","spec":{"tenant":"a","experiment":"X99","quick":true}}`
	if err := os.WriteFile(path, []byte(rec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(clk)
	cfg.JournalPath = path
	c := newTestCoord(t, cfg)
	job, err := c.Job("fj-1")
	if err != nil || job.State != JobQueued || job.Spec.Experiment != "X99" {
		t.Fatalf("replayed job = %+v, %v; want queued X99", job, err)
	}
}

// A Submit→Lease→Complete cycle costs about the same after 10 000 finished
// jobs as on a fresh coordinator: the sweep every call runs and Submit's
// quota count follow the open jobs, not every job the coordinator has held.
// Compares medians, so a stray GC pause or scheduler hiccup cannot fail it.
func TestCycleCostIgnoresFinishedJobs(t *testing.T) {
	c := newTestCoord(t, testConfig(newFakeClock()))
	mustRegister(t, c, "w", 1)
	cycle := func() time.Duration {
		start := time.Now()
		if _, err := c.Submit(JobSpec{Tenant: "t", Experiment: "T3", Quick: true}); err != nil {
			t.Fatal(err)
		}
		g := mustLease(t, c, "w")
		if cs, err := c.Complete("w", g.JobID, g.Attempt, "OUT", ""); err != nil || cs != CompleteRecorded {
			t.Fatalf("Complete = %v, %v", cs, err)
		}
		return time.Since(start)
	}
	median := func() time.Duration {
		ds := make([]time.Duration, 201)
		for i := range ds {
			ds[i] = cycle()
		}
		slices.Sort(ds)
		return ds[len(ds)/2]
	}
	fresh := median()
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	loaded := median()
	t.Logf("median cycle: %v fresh, %v after 10 000 finished jobs", fresh, loaded)
	if loaded > 3*fresh {
		t.Fatalf("median cycle after 10 000 finished jobs = %v, on a fresh coordinator %v: want at most 3x", loaded, fresh)
	}
}
