package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"time"
)

// Client speaks the coordinator's HTTP/JSON protocol. It is what the worker
// mode of uvmsimd uses, and what the fleet chaos harness drives directly.
// A Client is safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient builds a client for the coordinator at baseURL (e.g.
// "http://127.0.0.1:8080"). Requests carry a short timeout: every protocol
// verb is a small exchange, and a worker must notice a dead coordinator
// quickly rather than hang a lease renewal.
func NewClient(baseURL string) *Client {
	return &Client{
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: 10 * time.Second},
	}
}

// call sends one exchange of the named verb and returns the status it was
// answered with, which is one of ok. The body of any success but 204 No
// Content decodes into out, when out is not nil. Any other status is an
// error: the one of errs, the protocol errors the verb can fail with, to
// which errStatus gives that status, or else a plain HTTP error.
func (c *Client) call(ctx context.Context, verb, method, path string, in, out any, ok []int, errs ...error) (int, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, err
	}
	code := resp.StatusCode
	if !slices.Contains(ok, code) {
		for _, e := range errs {
			if statusOf(e, 0) == code {
				return code, fmt.Errorf("%w: %s", e, serverMsg(b))
			}
		}
		return code, fmt.Errorf("fleet: %s: HTTP %d: %s", verb, code, serverMsg(b))
	}
	if out != nil && code != http.StatusNoContent {
		if err := json.Unmarshal(b, out); err != nil {
			return code, fmt.Errorf("fleet: %s: %w", verb, err)
		}
	}
	return code, nil
}

// serverMsg digs the error string out of an {"error": ...} body.
func serverMsg(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(body))
}

// Register announces the worker and its declared capacity.
func (c *Client) Register(ctx context.Context, name string, capacity int, memBytes uint64) error {
	_, err := c.call(ctx, "register", http.MethodPost, "/v1/workers/register",
		registerReq{Name: name, Capacity: capacity, MemBytes: memBytes}, nil, []int{http.StatusNoContent})
	return err
}

// Heartbeat tells the coordinator the worker is alive.
func (c *Client) Heartbeat(ctx context.Context, name string) error {
	_, err := c.call(ctx, "heartbeat", http.MethodPost, "/v1/workers/heartbeat",
		workerReq{Worker: name}, nil, []int{http.StatusNoContent}, ErrUnknownWorker)
	return err
}

// Lease polls for a job. A nil grant with a nil error means nothing to do
// right now (queue empty, at capacity, or placement deferred the poll).
func (c *Client) Lease(ctx context.Context, name string) (*LeaseGrant, error) {
	var g LeaseGrant
	code, err := c.call(ctx, "lease", http.MethodPost, "/v1/lease", workerReq{Worker: name}, &g,
		[]int{http.StatusOK, http.StatusNoContent}, ErrUnknownWorker, ErrJournal)
	if err != nil || code == http.StatusNoContent {
		return nil, err
	}
	return &g, nil
}

// Renew extends the lease on (jobID, attempt). ErrStale means the lease is
// gone and the worker must abandon the run.
func (c *Client) Renew(ctx context.Context, name, jobID string, attempt int) error {
	_, err := c.call(ctx, "renew", http.MethodPost, "/v1/lease/renew",
		renewReq{Worker: name, JobID: jobID, Attempt: attempt}, nil, []int{http.StatusOK}, ErrStale)
	return err
}

// Complete reports the outcome of an attempt; errMsg empty means success
// with output holding the rendered result. The returned status is the
// coordinator's idempotency verdict.
func (c *Client) Complete(ctx context.Context, name, jobID string, attempt int, output, errMsg string) (CompleteStatus, error) {
	var res struct {
		Status CompleteStatus `json:"status"`
	}
	if _, err := c.call(ctx, "complete", http.MethodPost, "/v1/complete",
		completeReq{Worker: name, JobID: jobID, Attempt: attempt, Output: output, Error: errMsg}, &res,
		[]int{http.StatusOK}, ErrNoSuchJob, ErrMismatch, ErrJournal); err != nil {
		return "", err
	}
	return res.Status, nil
}

// Submit admits a job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	var st JobStatus
	if _, err := c.call(ctx, "submit", http.MethodPost, "/v1/jobs", spec, &st, []int{http.StatusCreated}, ErrQuota, ErrJournal); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	if _, err := c.call(ctx, "job", http.MethodGet, "/v1/jobs/"+id, nil, &st, []int{http.StatusOK}, ErrNoSuchJob); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Fleet fetches the whole-fleet snapshot.
func (c *Client) Fleet(ctx context.Context) (FleetState, error) {
	var st FleetState
	if _, err := c.call(ctx, "state", http.MethodGet, "/v1/fleet", nil, &st, []int{http.StatusOK}); err != nil {
		return FleetState{}, err
	}
	return st, nil
}
