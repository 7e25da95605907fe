// progress.go streams a job's live progress as Server-Sent Events:
// GET /v1/jobs/{id}/progress holds the connection open and emits a JSON
// event whenever the run's observed state advances, fed by the progress
// snapshots runctl.Control publishes at driver checkpoints. The stream ends
// with a "done" event carrying the job's terminal status, so a client can
// follow a run from submission to outcome without polling the job resource.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"uvmdiscard/internal/sim"
)

// progressPollInterval is how often the stream re-reads the job's state.
// The run publishes asynchronously (atomic snapshots at checkpoint stride),
// so polling here costs two atomic loads per tick, not a driver stall.
const progressPollInterval = 50 * time.Millisecond

// progressEvent is the JSON payload of one SSE "progress" event.
type progressEvent struct {
	// State is the job state at emission time.
	State jobState `json:"state"`
	// Op is the driver operation at the run's last observed checkpoint.
	Op string `json:"op,omitempty"`
	// SimTimeUS is the run's simulated clock in microseconds.
	SimTimeUS int64 `json:"sim_time_us"`
	// SimTime is the same clock, human-formatted.
	SimTime string `json:"sim_time,omitempty"`
	// Checks counts the run's full control polls (runctl.Progress.Checks):
	// operation entries and every 32nd block checkpoint.
	Checks uint64 `json:"checks"`
	// Finished counts completed batch experiments (batch jobs only).
	Finished int `json:"finished,omitempty"`
	// Resumed counts journal-resumed batch results (batch jobs only).
	Resumed int `json:"resumed,omitempty"`
}

// observe builds the event for the job's current state; the bool reports
// whether the underlying run has published any progress yet.
func (j *job) observe() (progressEvent, bool) {
	st := j.status()
	ev := progressEvent{
		State:    st.State,
		Finished: j.finishedRuns(),
		Resumed:  st.Resumed,
	}
	p, ok := j.currentControl().Progress()
	if ok {
		ev.Op = p.Op
		ev.SimTimeUS = int64(p.SimTime / sim.Microsecond)
		ev.SimTime = p.SimTime.String()
		ev.Checks = p.Checks
	}
	return ev, ok
}

// handleJobProgress serves the SSE stream. Each distinct observation is one
// "progress" event; a terminal job emits a final "done" event with its full
// status and closes. The handler exits promptly on client disconnect.
func (s *Server) handleJobProgress(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such job"})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, map[string]string{
			"error": "streaming unsupported by this connection",
		})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	emit := func(event string, v any) {
		data, err := json.Marshal(v)
		if err != nil {
			return
		}
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		fl.Flush()
	}

	var last progressEvent
	sent := false
	ticker := time.NewTicker(progressPollInterval)
	defer ticker.Stop()
	for {
		ev, _ := j.observe()
		if !sent || ev != last {
			emit("progress", ev)
			last, sent = ev, true
		}
		if j.terminal() {
			emit("done", j.status())
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-j.done:
			// Terminal state just landed: loop once more to emit it.
		case <-ticker.C:
		}
	}
}
