package fleet

import (
	"encoding/json"
	"errors"
	"net/http"

	"uvmdiscard/internal/promexp"
)

// The coordinator's HTTP/JSON surface. Verbs are deliberately tiny and
// poll-shaped — workers pull; the coordinator never dials a worker — so the
// whole protocol works through one listening socket and survives either
// side restarting.
//
//	POST /v1/jobs              submit a job            → 201 JobStatus
//	GET  /v1/jobs/{id}         job status              → 200 JobStatus
//	GET  /v1/fleet             whole-fleet snapshot    → 200 FleetState
//	GET  /metrics              Prometheus exposition
//	GET  /healthz              200, or 503 once a journal append has failed
//	POST /v1/workers/register  {name, capacity, mem_bytes} → 204
//	POST /v1/workers/heartbeat {worker}                → 204
//	POST /v1/lease             {worker}                → 200 LeaseGrant | 204 nothing
//	POST /v1/lease/renew       {worker, job_id, attempt} → 200 {ttl_ms} | 409 stale
//	POST /v1/complete          {worker, job_id, attempt, output, error} → 200 {status}
//
// A protocol error answers with its status in errStatus, any other error
// with its route's fallback status; the Client maps the status back. Once a
// journal append has failed, the verbs that journal (submit, lease,
// complete) answer 503 (ErrJournal).

// errStatus is the HTTP status of each protocol error. No verb can fail with
// two errors of one status, so the Client maps a status back unambiguously.
var errStatus = []struct {
	err    error
	status int
}{
	{ErrQuota, http.StatusTooManyRequests},
	{ErrUnknownWorker, http.StatusNotFound},
	{ErrNoSuchJob, http.StatusNotFound},
	{ErrStale, http.StatusConflict},
	{ErrMismatch, http.StatusConflict},
	{ErrJournal, http.StatusServiceUnavailable},
}

// statusOf is err's status in errStatus, or fallback for any other error.
func statusOf(err error, fallback int) int {
	for _, e := range errStatus {
		if errors.Is(err, e.err) {
			return e.status
		}
	}
	return fallback
}

// Handler returns the coordinator's HTTP mux.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", c.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	mux.HandleFunc("GET /v1/fleet", c.handleFleet)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /healthz", c.handleHealth)
	mux.HandleFunc("POST /v1/workers/register", c.handleRegister)
	mux.HandleFunc("POST /v1/workers/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /v1/lease", c.handleLease)
	mux.HandleFunc("POST /v1/lease/renew", c.handleRenew)
	mux.HandleFunc("POST /v1/complete", c.handleComplete)
	return mux
}

// handleHealth answers 200 while the coordinator can journal, and 503 once
// an append has failed, as uvmsimd does while draining: the coordinator
// still answers reads then, but refuses every change it would journal.
func (c *Coordinator) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if err := c.JournalErr(); err != nil {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "journal failed", "error": err.Error()})
		return
	}
	w.WriteHeader(http.StatusOK)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeErr answers err with its status in errStatus, or with fallback, the
// route's status for any other error. A journal failure answers with
// ErrJournal's text alone: the appender's error names the journal's file,
// which /healthz reports to the operator.
func writeErr(w http.ResponseWriter, fallback int, err error) {
	msg := err.Error()
	if errors.Is(err, ErrJournal) {
		msg = ErrJournal.Error()
	}
	writeJSON(w, statusOf(err, fallback), map[string]string{"error": msg})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return false
	}
	return true
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := c.Submit(spec)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	st, err := c.Job(r.PathValue("id"))
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (c *Coordinator) handleFleet(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, c.State())
}

func (c *Coordinator) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := promexp.Write(w, c.PromFamilies()); err != nil {
		c.logf("fleet: metrics render: %v", err)
	}
}

type registerReq struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
	MemBytes uint64 `json:"mem_bytes"`
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req registerReq
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.Register(req.Name, req.Capacity, req.MemBytes); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type workerReq struct {
	Worker string `json:"worker"`
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req workerReq
	if !decodeBody(w, r, &req) {
		return
	}
	if err := c.Heartbeat(req.Worker); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req workerReq
	if !decodeBody(w, r, &req) {
		return
	}
	grant, err := c.Lease(req.Worker)
	switch {
	case err != nil:
		writeErr(w, http.StatusInternalServerError, err)
	case grant == nil:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeJSON(w, http.StatusOK, grant)
	}
}

type renewReq struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	Attempt int    `json:"attempt"`
}

func (c *Coordinator) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req renewReq
	if !decodeBody(w, r, &req) {
		return
	}
	expiry, err := c.Renew(req.Worker, req.JobID, req.Attempt)
	if err != nil {
		writeErr(w, http.StatusConflict, err)
		return
	}
	ttl := expiry.Sub(c.cfg.now()).Milliseconds()
	writeJSON(w, http.StatusOK, map[string]int64{"ttl_ms": ttl})
}

type completeReq struct {
	Worker  string `json:"worker"`
	JobID   string `json:"job_id"`
	Attempt int    `json:"attempt"`
	Output  string `json:"output"`
	Error   string `json:"error"`
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req completeReq
	if !decodeBody(w, r, &req) {
		return
	}
	status, err := c.Complete(req.Worker, req.JobID, req.Attempt, req.Output, req.Error)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": string(status)})
}
