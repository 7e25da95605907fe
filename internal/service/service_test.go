package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"uvmdiscard/internal/experiments"
)

func newTestService(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, path string, body any) (int, jobStatus) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js jobStatus
	_ = json.NewDecoder(resp.Body).Decode(&js)
	return resp.StatusCode, js
}

func getJob(t *testing.T, ts *httptest.Server, id string) jobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var js jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatal(err)
	}
	return js
}

// waitState polls a job until it reaches one of the wanted states; the
// deadline is iteration-bounded so the test fails loudly instead of
// hanging.
func waitState(t *testing.T, ts *httptest.Server, id string, want ...jobState) jobStatus {
	t.Helper()
	for i := 0; i < 6000; i++ {
		js := getJob(t, ts, id)
		for _, w := range want {
			if js.State == w {
				return js
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (last: %+v)", id, want, getJob(t, ts, id))
	return jobStatus{}
}

// A full queue sheds with 503 + Retry-After instead of blocking, and the
// shed is counted. One worker is pinned by a spin run; the one-slot queue
// is filled; the third submit must bounce.
func TestQueueFullShedsWith503(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1, QueueDepth: 1})
	_, spin := post(t, ts, "/v1/runs", RunRequest{Workload: "spin"})
	waitState(t, ts, spin.ID, stateRunning)
	code, queued := post(t, ts, "/v1/runs", RunRequest{Workload: "fir", Quick: true})
	if code != http.StatusAccepted {
		t.Fatalf("queue slot submit: %d", code)
	}

	raw, _ := json.Marshal(RunRequest{Workload: "fir", Quick: true})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overload submit: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := s.Metrics().Shed.Load(); got != 1 {
		t.Errorf("Shed = %d, want 1", got)
	}

	// Unpin the worker: the spin is canceled (a structured outcome, counted)
	// and the queued run completes.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+spin.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitState(t, ts, spin.ID, stateCanceled)
	done := waitState(t, ts, queued.ID, stateDone)
	if done.Output == "" || !strings.Contains(done.Output, "traffic_gb") {
		t.Errorf("completed run has no summary: %+v", done)
	}
	if got := s.Metrics().Canceled.Load(); got != 1 {
		t.Errorf("Canceled = %d, want 1", got)
	}
	if got := s.Metrics().Completed.Load(); got != 1 {
		t.Errorf("Completed = %d, want 1", got)
	}
}

// The watchdog kills a runaway simulation at its wall deadline and reports
// a structured deadline_expired outcome, never a panic or a hung worker.
func TestWallDeadlineKillsRunawayRun(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1})
	_, js := post(t, ts, "/v1/runs", RunRequest{Workload: "spin", WallBudgetMS: 250})
	got := waitState(t, ts, js.ID, stateDeadline)
	if !strings.Contains(got.Error, "wall-deadline") {
		t.Errorf("deadline error not structured: %+v", got)
	}
	if n := s.Metrics().DeadlineExpired.Load(); n != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", n)
	}
}

// A sim-time budget stops a run deterministically in simulated time.
func TestSimBudgetStopsRun(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1})
	_, js := post(t, ts, "/v1/runs", RunRequest{Workload: "spin", SimBudgetMS: 5})
	got := waitState(t, ts, js.ID, stateBudget)
	if !strings.Contains(got.Error, "sim-budget") {
		t.Errorf("budget error not structured: %+v", got)
	}
	if n := s.Metrics().BudgetExpired.Load(); n != 1 {
		t.Errorf("BudgetExpired = %d, want 1", n)
	}
}

// Graceful shutdown: the in-flight run completes and its result is kept;
// queued runs are shed and reported; later submits bounce with 503.
func TestGracefulShutdownDrainsInFlightShedsQueued(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1, QueueDepth: 8})

	// The in-flight job is a real T4 quick batch, gated so the worker stays
	// parked on it deterministically while the queued jobs pile up behind it.
	b := BatchRequest{Experiments: []string{"T4"}, Quick: true}
	if err := b.validate(s.cfg); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	inflight := s.newJob(jobBatch, RunRequest{}, &b)
	inflight.testGate = gate
	if !s.admit(inflight) {
		t.Fatal("admit in-flight job")
	}
	waitState(t, ts, inflight.id, stateRunning)
	_, q1 := post(t, ts, "/v1/runs", RunRequest{Workload: "fir", Quick: true})
	_, q2 := post(t, ts, "/v1/runs", RunRequest{Workload: "graph", Quick: true})

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- s.Shutdown(ctx) }()

	// Shutdown sheds the queue immediately, while the in-flight run is still
	// parked on its gate.
	waitState(t, ts, q1.ID, stateShed)
	waitState(t, ts, q2.ID, stateShed)
	close(gate)
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful drain failed: %v", err)
	}
	if got := getJob(t, ts, inflight.id); got.State != stateDone || got.Output == "" {
		t.Errorf("in-flight batch did not complete: %+v", got)
	}
	for _, id := range []string{q1.ID, q2.ID} {
		if got := getJob(t, ts, id); got.State != stateShed {
			t.Errorf("queued job %s not shed: %+v", id, got)
		}
	}
	if n := s.Metrics().Shed.Load(); n != 2 {
		t.Errorf("Shed = %d, want 2", n)
	}

	// The server is draining: health reports it and submits shed.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz after shutdown: %d, want 503", resp.StatusCode)
	}
	code, _ := post(t, ts, "/v1/runs", RunRequest{Workload: "fir", Quick: true})
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", code)
	}
}

// When the drain window expires, in-flight runs are canceled through their
// controls — the shutdown still converges, with a structured outcome.
func TestShutdownDeadlineCancelsInFlight(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1})
	_, spin := post(t, ts, "/v1/runs", RunRequest{Workload: "spin"})
	waitState(t, ts, spin.ID, stateRunning)

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("shutdown of a spinning run reported a clean drain")
	}
	if got := getJob(t, ts, spin.ID); got.State != stateCanceled {
		t.Errorf("spinning run not canceled by drain deadline: %+v", got)
	}
}

// DELETE on a still-queued job cancels it before it ever runs.
func TestCancelQueuedJobNeverRuns(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	_, spin := post(t, ts, "/v1/runs", RunRequest{Workload: "spin"})
	waitState(t, ts, spin.ID, stateRunning)
	_, queued := post(t, ts, "/v1/runs", RunRequest{Workload: "fir", Quick: true})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	// Unpin the worker so it dequeues the canceled job.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+spin.ID, nil)
	if _, err := http.DefaultClient.Do(req2); err != nil {
		t.Fatal(err)
	}
	got := waitState(t, ts, queued.ID, stateCanceled)
	if !strings.Contains(got.Error, "queued") {
		t.Errorf("canceled-while-queued not reported as such: %+v", got)
	}
	if n := s.Metrics().Canceled.Load(); n != 2 {
		t.Errorf("Canceled = %d, want 2 (spin + queued)", n)
	}
}

// A panicking job fails itself, ticks the panic counter, and leaves the
// worker alive for the next job.
func TestJobPanicIsIsolated(t *testing.T) {
	s, ts := newTestService(t, Config{Workers: 1})
	// A batch job with no batch payload dereferences nil inside the worker —
	// a stand-in for any simulation bug that panics mid-run.
	bad := s.newJob(jobBatch, RunRequest{}, nil)
	if !s.admit(bad) {
		t.Fatal("admit failed")
	}
	got := waitState(t, ts, bad.id, stateFailed)
	if !strings.Contains(got.Error, "panic") {
		t.Errorf("panic not reported on the job: %+v", got)
	}
	if n := s.Metrics().Panics.Load(); n != 1 {
		t.Errorf("Panics = %d, want 1", n)
	}
	// The worker survived: the next job completes.
	_, next := post(t, ts, "/v1/runs", RunRequest{Workload: "fir", Quick: true})
	waitState(t, ts, next.ID, stateDone)
}

// Invalid requests are rejected at the door with one-line errors.
func TestRequestValidation(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, body := range []RunRequest{
		{Workload: "warp-drive"},
		{Workload: "fir", System: "magic"},
		{Workload: "fir", Faults: "dma=NaN"},
		{Workload: "fir", WallBudgetMS: -1},
	} {
		if code, _ := post(t, ts, "/v1/runs", body); code != http.StatusBadRequest {
			t.Errorf("%+v accepted with %d", body, code)
		}
	}
	if code, _ := post(t, ts, "/v1/batches", BatchRequest{Experiments: []string{"T99"}}); code != http.StatusBadRequest {
		t.Errorf("unknown experiment accepted with %d", code)
	}
	// Journal requested but journaling disabled.
	if code, _ := post(t, ts, "/v1/batches", BatchRequest{Experiments: []string{"T4"}, Journal: "x"}); code != http.StatusBadRequest {
		t.Errorf("journal without journal-dir accepted with %d", code)
	}
}

// In-process resume: a batch journaled under a name is skipped when a
// superset batch reuses the journal, and the merged output is byte-
// identical to an uninterrupted run of the full selection.
func TestBatchJournalResume(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestService(t, Config{Workers: 1, JournalDir: dir})

	_, first := post(t, ts, "/v1/batches", BatchRequest{
		Experiments: []string{"T4"}, Quick: true, Journal: "resume"})
	waitState(t, ts, first.ID, stateDone)

	_, second := post(t, ts, "/v1/batches", BatchRequest{
		Experiments: []string{"T4", "T6"}, Quick: true, Journal: "resume"})
	got := waitState(t, ts, second.ID, stateDone)
	if got.Resumed != 1 {
		t.Errorf("resumed %d experiments, want 1", got.Resumed)
	}
	if n := s.Metrics().Resumed.Load(); n != 1 {
		t.Errorf("Resumed counter = %d, want 1", n)
	}

	want := renderSelection(t, "T4", "T6")
	if got.Output != want {
		t.Errorf("resumed batch output differs from uninterrupted run:\n--- got ---\n%s--- want ---\n%s",
			got.Output, want)
	}
}

func renderSelection(t *testing.T, ids ...string) string {
	t.Helper()
	var sel []experiments.Experiment
	for _, id := range ids {
		e, ok := experiments.Lookup(id)
		if !ok {
			t.Fatalf("no experiment %s", id)
		}
		sel = append(sel, e)
	}
	results := experiments.RunAll(nil, sel, experiments.Options{Quick: true}, 1, nil)
	var b strings.Builder
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Experiment.ID, r.Err)
		}
		b.WriteString(r.Table.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Sanity: the status endpoints answer.
// A submit body over the 1 MiB cap is refused with 400 and admits no job,
// even when it holds a valid request: here one padded with 2 MiB of
// whitespace inside the object, which the decoder must read through.
func TestOversizedBodyRejected(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	pad := strings.Repeat(" ", 2<<20)
	for path, body := range map[string]string{
		"/v1/runs":    `{` + pad + `"workload":"fir","quick":true}`,
		"/v1/batches": `{` + pad + `"experiments":["T4"],"quick":true}`,
	} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: padded body answered %d, want 400", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jobs []jobStatus
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 0 {
		t.Errorf("oversized submits admitted %d jobs: %+v", len(jobs), jobs)
	}
}

func TestStatusEndpoints(t *testing.T) {
	_, ts := newTestService(t, Config{Workers: 1})
	for _, path := range []string{"/healthz", "/v1/metrics", "/v1/experiments", "/v1/jobs"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: %d", path, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing job: %d, want 404", resp.StatusCode)
	}
}
