package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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

// do sends one JSON exchange and returns the response status and body.
func (c *Client) do(ctx context.Context, method, path string, in any) (int, []byte, error) {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return 0, nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, b, nil
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
	code, body, err := c.do(ctx, http.MethodPost, "/v1/workers/register",
		registerReq{Name: name, Capacity: capacity, MemBytes: memBytes})
	if err != nil {
		return err
	}
	if code != http.StatusNoContent {
		return fmt.Errorf("fleet: register: HTTP %d: %s", code, serverMsg(body))
	}
	return nil
}

// Heartbeat tells the coordinator the worker is alive.
func (c *Client) Heartbeat(ctx context.Context, name string) error {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/workers/heartbeat", workerReq{Worker: name})
	if err != nil {
		return err
	}
	switch code {
	case http.StatusNoContent:
		return nil
	case http.StatusNotFound:
		return fmt.Errorf("%w: %s", ErrUnknownWorker, serverMsg(body))
	default:
		return fmt.Errorf("fleet: heartbeat: HTTP %d: %s", code, serverMsg(body))
	}
}

// Lease polls for a job. A nil grant with a nil error means nothing to do
// right now (queue empty, at capacity, or placement deferred the poll).
func (c *Client) Lease(ctx context.Context, name string) (*LeaseGrant, error) {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/lease", workerReq{Worker: name})
	if err != nil {
		return nil, err
	}
	switch code {
	case http.StatusOK:
		var g LeaseGrant
		if err := json.Unmarshal(body, &g); err != nil {
			return nil, fmt.Errorf("fleet: lease: %w", err)
		}
		return &g, nil
	case http.StatusNoContent:
		return nil, nil
	case http.StatusNotFound:
		return nil, fmt.Errorf("%w: %s", ErrUnknownWorker, serverMsg(body))
	default:
		return nil, fmt.Errorf("fleet: lease: HTTP %d: %s", code, serverMsg(body))
	}
}

// Renew extends the lease on (jobID, attempt). ErrStale means the lease is
// gone and the worker must abandon the run.
func (c *Client) Renew(ctx context.Context, name, jobID string, attempt int) error {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/lease/renew",
		renewReq{Worker: name, JobID: jobID, Attempt: attempt})
	if err != nil {
		return err
	}
	switch code {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("%w: %s", ErrStale, serverMsg(body))
	default:
		return fmt.Errorf("fleet: renew: HTTP %d: %s", code, serverMsg(body))
	}
}

// Complete reports the outcome of an attempt; errMsg empty means success
// with output holding the rendered result. The returned status is the
// coordinator's idempotency verdict.
func (c *Client) Complete(ctx context.Context, name, jobID string, attempt int, output, errMsg string) (CompleteStatus, error) {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/complete",
		completeReq{Worker: name, JobID: jobID, Attempt: attempt, Output: output, Error: errMsg})
	if err != nil {
		return "", err
	}
	switch code {
	case http.StatusOK:
		var res struct {
			Status CompleteStatus `json:"status"`
		}
		if err := json.Unmarshal(body, &res); err != nil {
			return "", fmt.Errorf("fleet: complete: %w", err)
		}
		return res.Status, nil
	case http.StatusNotFound:
		return "", fmt.Errorf("%w: %s", ErrNoSuchJob, serverMsg(body))
	case http.StatusConflict:
		return "", fmt.Errorf("%w: %s", ErrMismatch, serverMsg(body))
	default:
		return "", fmt.Errorf("fleet: complete: HTTP %d: %s", code, serverMsg(body))
	}
}

// Submit admits a job.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (JobStatus, error) {
	code, body, err := c.do(ctx, http.MethodPost, "/v1/jobs", spec)
	if err != nil {
		return JobStatus{}, err
	}
	switch code {
	case http.StatusCreated:
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return JobStatus{}, fmt.Errorf("fleet: submit: %w", err)
		}
		return st, nil
	case http.StatusTooManyRequests:
		return JobStatus{}, fmt.Errorf("%w: %s", ErrQuota, serverMsg(body))
	default:
		return JobStatus{}, fmt.Errorf("fleet: submit: HTTP %d: %s", code, serverMsg(body))
	}
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	code, body, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	switch code {
	case http.StatusOK:
		var st JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			return JobStatus{}, fmt.Errorf("fleet: job: %w", err)
		}
		return st, nil
	case http.StatusNotFound:
		return JobStatus{}, fmt.Errorf("%w: %s", ErrNoSuchJob, serverMsg(body))
	default:
		return JobStatus{}, fmt.Errorf("fleet: job: HTTP %d: %s", code, serverMsg(body))
	}
}

// Fleet fetches the whole-fleet snapshot.
func (c *Client) Fleet(ctx context.Context) (FleetState, error) {
	code, body, err := c.do(ctx, http.MethodGet, "/v1/fleet", nil)
	if err != nil {
		return FleetState{}, err
	}
	if code != http.StatusOK {
		return FleetState{}, fmt.Errorf("fleet: state: HTTP %d: %s", code, serverMsg(body))
	}
	var st FleetState
	if err := json.Unmarshal(body, &st); err != nil {
		return FleetState{}, fmt.Errorf("fleet: state: %w", err)
	}
	return st, nil
}
