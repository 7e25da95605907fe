// Package service implements uvmsimd's HTTP layer: a long-running
// simulation service that accepts single workload runs and whole experiment
// batches, executes them on a bounded worker pool, and survives the
// production failure modes a simulator CLI never meets — overload (bounded
// admission queue with load shedding), runaway simulations (per-run wall
// deadlines and sim-time budgets via internal/runctl), panics (per-request
// and per-job isolation), operator cancellation (DELETE on a job), graceful
// shutdown (in-flight runs drain, queued runs are shed), and process death
// mid-batch (crash-safe journals via experiments.RunAllJournaled).
//
// This package is host-side control plane, not simulation: it is on the
// simdet allowlist and may read the wall clock, but it never touches
// simulated time — budgets cross into the simulation only through a
// runctl.Control, and every run keeps the per-run isolation rules
// (fresh driver, collector, RNG, control per run).
package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/promexp"
	"uvmdiscard/internal/sim"
)

// Config tunes the service. The zero value is usable: sensible queue and
// worker defaults, journaling disabled, a 2-minute default wall deadline.
type Config struct {
	// Workers is the number of simulation worker goroutines; <1 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the admission queue; <1 means 64. A submit that
	// finds the queue full is shed with 503 + Retry-After, never blocked.
	QueueDepth int
	// JournalDir enables crash-safe batch journals: a batch submitted with
	// a journal name appends completed results to <JournalDir>/<name>.jsonl
	// and resumes from it on re-submit. Empty disables journaling.
	JournalDir string
	// DataDir enables per-run checkpoint snapshots: a workload run submitted
	// with a checkpoint name durably persists a snapshot of the live
	// simulation to <DataDir>/<name>.ckpt at every step boundary, and a
	// re-submitted run with the same name resumes from it — surviving even a
	// SIGKILL of the whole daemon. Empty disables checkpointing.
	DataDir string
	// DefaultWallBudget caps each job's wall-clock time when the request
	// does not set its own; <=0 means 2 minutes. This is the watchdog that
	// keeps a runaway simulation from pinning a worker forever — requests
	// may raise or lower it but not disable it.
	DefaultWallBudget time.Duration
	// DefaultSimBudget caps each run's simulated time when the request does
	// not set its own; 0 means unlimited.
	DefaultSimBudget sim.Time
	// RetainJobs bounds how many finished jobs the server keeps for
	// GET /v1/jobs{,/{id}}; <1 means 256. When a new submission would exceed
	// the bound, the oldest terminal jobs are evicted (their IDs then 404).
	// Queued and running jobs are never evicted and do not count against the
	// bound, so the job table is O(RetainJobs + in-flight) forever instead of
	// growing with every submission the process has ever seen.
	RetainJobs int
	// Log receives service events; nil discards them.
	Log *log.Logger
}

// Server is the uvmsimd service. Create with New, serve via Handler, stop
// with Shutdown.
type Server struct {
	cfg Config
	sc  metrics.ServiceCollector
	mux *http.ServeMux

	// These synchronize themselves: nextID is atomic, workers is a
	// WaitGroup, and queue is created once in New — workers receive from it
	// lock-free, while sends and the close happen under mu (admit/Shutdown)
	// so no send can race the close.
	nextID  atomic.Int64
	workers sync.WaitGroup
	queue   chan *job

	// latency distributes finished-job wall time (seconds); it synchronizes
	// itself, and its mean feeds the Retry-After hint shed responses carry.
	latency *promexp.Histogram
	// sims aggregates simulation collectors for the /metrics exporter; it
	// carries its own lock.
	sims simState

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []string // job IDs in submission order, for listing
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers < 1 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.DefaultWallBudget <= 0 {
		cfg.DefaultWallBudget = 2 * time.Minute
	}
	if cfg.RetainJobs < 1 {
		cfg.RetainJobs = 256
	}
	s := &Server{
		cfg:     cfg,
		queue:   make(chan *job, cfg.QueueDepth),
		latency: promexp.MustHistogram(),
		jobs:    make(map[string]*job),
	}
	s.sims.init()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/runs", s.handleSubmitRun)
	s.mux.HandleFunc("POST /v1/batches", s.handleSubmitBatch)
	s.mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/progress", s.handleJobProgress)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler with per-request panic
// isolation: a panicking handler produces a 500 on that request and a
// Panics tick, never a dead process.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.sc.Panics.Add(1)
				s.logf("panic in %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				// Best effort: if the handler already wrote, this is a no-op.
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		s.mux.ServeHTTP(w, r)
	})
}

// Metrics exposes the service counters (tests and cmd/uvmsimd).
func (s *Server) Metrics() *metrics.ServiceCollector { return &s.sc }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// admit registers a job and enqueues it without ever blocking: a full
// queue or a draining server sheds the job instead. This is the
// backpressure boundary — the queue send happens under the same lock that
// Shutdown takes to flip draining, so a job can never slip into a queue
// that is about to be drained and closed.
func (s *Server) admit(j *job) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.sc.Admitted.Add(1)
		s.pruneLocked()
		return true
	default:
		return false
	}
}

// prune enforces Config.RetainJobs. Called after every admission and every
// job completion so the table shrinks as soon as evictable history exists.
func (s *Server) prune() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pruneLocked()
}

// pruneLocked evicts the oldest terminal jobs until at most RetainJobs of
// them remain. Queued and running jobs are untouchable regardless of age —
// evicting those would orphan live work. Caller holds s.mu.
func (s *Server) pruneLocked() {
	terminal := 0
	for _, id := range s.order {
		if s.jobs[id].terminal() {
			terminal++
		}
	}
	evict := terminal - s.cfg.RetainJobs
	if evict <= 0 {
		return
	}
	keep := s.order[:0]
	var evicted []*job
	for _, id := range s.order {
		if evict > 0 && s.jobs[id].terminal() {
			evicted = append(evicted, s.jobs[id])
			delete(s.jobs, id)
			evict--
			continue
		}
		keep = append(keep, id)
	}
	s.order = keep
	// Evicting a job also reclaims its on-disk snapshot — the data dir is
	// bounded by the same retention policy as the job table — unless a
	// retained job (a resubmitted resume under the same name) still points
	// at the file.
	for _, j := range evicted {
		if j.ckpt == "" || s.checkpointInUseLocked(j.ckpt) {
			continue
		}
		if err := os.Remove(j.ckpt); err != nil && !os.IsNotExist(err) {
			s.logf("job %s: evict checkpoint %s: %v", j.id, j.ckpt, err)
		}
	}
}

// checkpointInUseLocked reports whether any retained job still references
// the snapshot at path. Caller holds s.mu.
func (s *Server) checkpointInUseLocked(path string) bool {
	for _, j := range s.jobs {
		if j.ckpt == path {
			return true
		}
	}
	return false
}

func (s *Server) lookup(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker executes queued jobs until the queue is closed by Shutdown. Each
// job runs under panic isolation: a panicking simulation fails its own job
// and the worker moves on.
func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		if j.ctx.Err() != nil {
			// Canceled while still queued: report, never run.
			j.finish(stateCanceled, "", fmt.Sprintf("canceled while queued: %v", j.ctx.Err()))
			s.sc.Canceled.Add(1)
			s.prune()
			continue
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	start := time.Now()
	defer func() {
		if p := recover(); p != nil {
			s.sc.Panics.Add(1)
			s.logf("job %s panicked: %v\n%s", j.id, p, debug.Stack())
			j.finish(stateFailed, "", fmt.Sprintf("panic: %v", p))
			s.sc.Failed.Add(1)
		}
		// Every path through a run — clean, interrupted, panicked — feeds the
		// latency histogram (the Retry-After estimate must see the jobs that
		// blew their budgets, not just the happy ones) and then lets the
		// retention policy reclaim evictable history.
		s.latency.Observe(time.Since(start).Seconds())
		s.prune()
	}()
	j.setState(stateRunning)
	if j.testGate != nil {
		<-j.testGate
	}
	var (
		output string
		err    error
	)
	switch j.kind {
	case jobWorkload:
		output, err = s.runWorkloadJob(j)
	case jobBatch:
		output, err = s.runBatchJob(j)
	default:
		err = fmt.Errorf("unknown job kind %q", j.kind)
	}
	state, errMsg := classify(err)
	switch state {
	case stateDone:
		s.sc.Completed.Add(1)
	case stateCanceled:
		s.sc.Canceled.Add(1)
	case stateDeadline:
		s.sc.DeadlineExpired.Add(1)
	case stateBudget:
		s.sc.BudgetExpired.Add(1)
	default:
		s.sc.Failed.Add(1)
	}
	j.finish(state, output, errMsg)
}

// Shutdown drains the service gracefully: no new admissions, jobs still in
// the queue are shed (reported on the job, counted in metrics), and
// in-flight runs are given until ctx expires to finish — after which they
// are canceled through their run controls and awaited. Always returns with
// the worker pool stopped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return fmt.Errorf("service: already shut down")
	}
	s.draining = true
	// Shed everything still queued. No admit can race this: draining flips
	// under the same lock the queue send takes.
	for {
		select {
		case j := <-s.queue:
			j.finish(stateShed, "", "shed: service shutting down")
			s.sc.Shed.Add(1)
			continue
		default:
		}
		break
	}
	close(s.queue)
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Deadline for graceful drain expired: cancel the in-flight runs —
		// they abort at their next driver checkpoint, sanitizer-clean — and
		// wait for the workers to report them.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (s *Server) shed(w http.ResponseWriter) {
	s.sc.Shed.Add(1)
	retry := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":               "queue full or shutting down; retry later",
		"retry_after_seconds": retry,
	})
}

// retryAfterSeconds derives the shed response's Retry-After hint from the
// actual load instead of a hard-coded constant: the backlog a retrying
// client would sit behind (current queue occupancy plus its own slot),
// spread across the worker pool, at the observed mean job latency. With no
// completed jobs yet the estimate assumes one second per job. Clamped to
// [1, 300] so a pathological backlog still yields a usable HTTP hint.
func (s *Server) retryAfterSeconds() int {
	mean, ok := s.latency.Mean()
	if !ok || mean <= 0 {
		mean = 1
	}
	backlog := float64(len(s.queue) + 1)
	sec := int(math.Ceil(mean * backlog / float64(s.cfg.Workers)))
	if sec < 1 {
		sec = 1
	}
	if sec > 300 {
		sec = 300
	}
	return sec
}

func (s *Server) submit(w http.ResponseWriter, j *job) {
	if !s.admit(j) {
		j.cancel()
		s.shed(w)
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

// maxBodyBytes caps a submit request body, as the fleet coordinator caps
// its own: a request needs a few hundred bytes, and a longer body is
// refused with 400 once the decoder has read this much.
const maxBodyBytes = 1 << 20

func (s *Server) handleSubmitRun(w http.ResponseWriter, r *http.Request) {
	var req RunRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := req.validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if req.Checkpoint != "" && s.cfg.DataDir == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "checkpointing disabled: server has no data directory"})
		return
	}
	s.submit(w, s.newJob(jobWorkload, req, nil))
}

func (s *Server) handleSubmitBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	if err := req.validate(s.cfg); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	s.submit(w, s.newJob(jobBatch, RunRequest{}, &req))
}

func (s *Server) handleListJobs(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]jobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].status())
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	j.cancel()
	writeJSON(w, http.StatusOK, j.status())
}

func (s *Server) handleListExperiments(w http.ResponseWriter, _ *http.Request) {
	type entry struct {
		ID   string `json:"id"`
		Name string `json:"name"`
	}
	var out []entry
	for _, e := range experiments.All() {
		out = append(out, entry{ID: e.ID, Name: e.Name})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sc.Snapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// journalName restricts batch journal names to a path-safe alphabet; the
// journal always lands inside JournalDir.
var journalName = regexp.MustCompile(`^[A-Za-z0-9._-]{1,128}$`)

func (s *Server) journalPath(name string) string {
	return filepath.Join(s.cfg.JournalDir, name+".jsonl")
}

// checkpointPath places a run's snapshot file inside DataDir; names share
// the journal slug alphabet so the file always lands there.
func (s *Server) checkpointPath(name string) string {
	return filepath.Join(s.cfg.DataDir, name+".ckpt")
}
