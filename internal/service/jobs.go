package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/catalog"
)

type jobKind string

const (
	jobWorkload jobKind = "workload"
	jobBatch    jobKind = "batch"
)

// jobState is the job lifecycle. Interrupted outcomes are first-class
// states — an operator reading the job list can tell a run the watchdog
// killed from one that genuinely failed.
type jobState string

const (
	stateQueued   jobState = "queued"
	stateRunning  jobState = "running"
	stateDone     jobState = "done"
	stateFailed   jobState = "failed"
	stateCanceled jobState = "canceled"
	stateDeadline jobState = "deadline_expired"
	stateBudget   jobState = "budget_expired"
	stateShed     jobState = "shed"
)

// RunRequest submits one workload simulation.
type RunRequest struct {
	// Workload is a catalog name (fir | radixsort | hashjoin | graph, or an
	// alias) or spin: a deliberately unterminated simulation used to
	// exercise the watchdog, which only ends by cancel, deadline or budget.
	Workload string `json:"workload"`
	// System is the memory-management system under test (UVM-opt,
	// UvmDiscard, UvmDiscardLazy; workload-dependent). Defaults to UVM-opt.
	System string `json:"system"`
	// Ovsp is the oversubscription percent (0 = fits).
	Ovsp int `json:"ovsp"`
	// Quick scales the problem down to smoke-test size.
	Quick bool `json:"quick"`
	// Faults is a fault-injection spec in the CLI grammar (see
	// internal/faultinject.ParseSpec); empty injects nothing.
	Faults string `json:"faults"`
	// WallBudgetMS caps this run's host wall time in milliseconds; 0 uses
	// the server default. The cap cannot be disabled, only moved.
	WallBudgetMS int64 `json:"wall_budget_ms"`
	// SimBudgetMS caps this run's simulated time in milliseconds of sim
	// time; 0 uses the server default.
	SimBudgetMS int64 `json:"sim_budget_ms"`
	// Checkpoint names this run's crash-survivable checkpoint file (a
	// path-safe slug; resumable workloads only, i.e. fir). The run persists
	// a step marker at every step boundary; a re-submitted run with the same
	// name resumes from the last one — byte-identical to an uninterrupted
	// run — and a clean completion deletes the file. Needs a data directory.
	Checkpoint string `json:"checkpoint"`

	faults *faultinject.Config
}

func (r *RunRequest) validate() error {
	resumable := false
	if r.Workload != "spin" {
		w, err := catalog.Lookup(r.Workload)
		if err != nil {
			return fmt.Errorf("unknown workload %q (want %s, or spin)", r.Workload, strings.Join(catalog.Names(), ", "))
		}
		r.Workload, resumable = w.Name, w.Resumable()
	}
	if _, err := workloads.ParseSystem(r.System); err != nil {
		return err
	}
	if r.Ovsp < 0 || r.Ovsp > 1000 {
		return fmt.Errorf("ovsp %d outside [0,1000]", r.Ovsp)
	}
	if r.WallBudgetMS < 0 || r.SimBudgetMS < 0 {
		return fmt.Errorf("budgets must be >= 0")
	}
	if r.Faults != "" {
		cfg, err := faultinject.ParseSpec(r.Faults)
		if err != nil {
			return err
		}
		r.faults = cfg
	}
	if r.Checkpoint != "" {
		if !resumable {
			return fmt.Errorf("the %s workload cannot resume, so it cannot checkpoint", r.Workload)
		}
		if !journalName.MatchString(r.Checkpoint) {
			return fmt.Errorf("checkpoint name %q: want 1-128 chars of [A-Za-z0-9._-]", r.Checkpoint)
		}
		if r.Faults != "" {
			return fmt.Errorf("checkpointing cannot be combined with fault injection")
		}
	}
	return nil
}

// BatchRequest submits an experiment batch.
type BatchRequest struct {
	// Experiments selects artifact IDs or names; empty means the full set.
	Experiments []string `json:"experiments"`
	// Quick runs the scaled-down problem sizes.
	Quick bool `json:"quick"`
	// Journal names this batch's crash-safe journal (a path-safe slug). A
	// re-submitted batch with the same journal name and Quick flag resumes:
	// completed experiments are served from disk, byte-identical. Requires
	// the server to run with a journal directory.
	Journal string `json:"journal"`
	// WallBudgetMS / SimBudgetMS are per-run budgets as in RunRequest.
	WallBudgetMS int64 `json:"wall_budget_ms"`
	SimBudgetMS  int64 `json:"sim_budget_ms"`

	selected []experiments.Experiment
}

func (b *BatchRequest) validate(cfg Config) error {
	if len(b.Experiments) == 0 {
		b.selected = experiments.All()
	} else {
		for _, id := range b.Experiments {
			e, ok := experiments.Lookup(id)
			if !ok {
				return fmt.Errorf("unknown experiment %q", id)
			}
			b.selected = append(b.selected, e)
		}
	}
	if b.Journal != "" {
		if cfg.JournalDir == "" {
			return fmt.Errorf("journaling disabled: server has no journal directory")
		}
		if !journalName.MatchString(b.Journal) {
			return fmt.Errorf("journal name %q: want 1-128 chars of [A-Za-z0-9._-]", b.Journal)
		}
	}
	if b.WallBudgetMS < 0 || b.SimBudgetMS < 0 {
		return fmt.Errorf("budgets must be >= 0")
	}
	return nil
}

type job struct {
	id    string
	kind  jobKind
	run   RunRequest
	batch *BatchRequest

	ctx    context.Context
	cancel context.CancelFunc

	// wall/simBudget are resolved against the server defaults at submit
	// time, so the job record shows what will actually be enforced.
	wall time.Duration
	simB sim.Time
	// ckpt is the run's checkpoint file path (workload jobs submitted with a
	// checkpoint name); eviction from the retention table reclaims it.
	ckpt string

	mu      sync.Mutex
	state   jobState
	output  string
	errMsg  string
	resumed int
	done    chan struct{}
	// ctl is the most recently armed run control — the handle the progress
	// stream reads sim-time advance through. Workload jobs arm exactly one;
	// batch jobs re-arm per experiment (via experiments.Options.OnControl).
	ctl *runctl.Control
	// finished counts batch experiments completed so far, for progress.
	finished int

	// testGate, when non-nil (tests only), parks the worker after the job
	// reaches the running state until the channel is closed. It makes
	// "in-flight while others queue" scenarios deterministic instead of
	// racing against quick-mode run times.
	testGate chan struct{}
}

// newJob resolves budgets and builds the job's cancellation scope. The
// scope derives from context.Background(), not the HTTP request: the
// submitting connection closing must not kill the run — only DELETE,
// budgets, or shutdown policy do.
func (s *Server) newJob(kind jobKind, run RunRequest, batch *BatchRequest) *job {
	ctx, cancel := context.WithCancel(context.Background())
	j := &job{
		id:     "job-" + strconv.FormatInt(s.nextID.Add(1), 10),
		kind:   kind,
		run:    run,
		batch:  batch,
		ctx:    ctx,
		cancel: cancel,
		state:  stateQueued,
		done:   make(chan struct{}),
	}
	wallMS, simMS := run.WallBudgetMS, run.SimBudgetMS
	if batch != nil {
		wallMS, simMS = batch.WallBudgetMS, batch.SimBudgetMS
	}
	j.wall = s.cfg.DefaultWallBudget
	if wallMS > 0 {
		j.wall = time.Duration(wallMS) * time.Millisecond
	}
	j.simB = s.cfg.DefaultSimBudget
	if simMS > 0 {
		j.simB = sim.Time(simMS) * sim.Millisecond
	}
	if kind == jobWorkload && run.Checkpoint != "" {
		j.ckpt = s.checkpointPath(run.Checkpoint)
	}
	return j
}

// control builds the job's fresh per-run watchdog. Called once per
// simulation run, never shared (runctl.Control is single-threaded state).
// The control is remembered as the job's current one so the progress
// stream can observe it (runctl.Control.Progress is the one cross-
// goroutine-safe surface of a control).
func (j *job) control() *runctl.Control {
	c := runctl.New(j.ctx, j.wall, j.simB)
	j.setControl(c)
	return c
}

func (j *job) setControl(c *runctl.Control) {
	j.mu.Lock()
	j.ctl = c
	j.mu.Unlock()
}

func (j *job) currentControl() *runctl.Control {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.ctl
}

func (j *job) addFinished(n int) {
	j.mu.Lock()
	j.finished += n
	j.mu.Unlock()
}

func (j *job) finishedRuns() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.finished
}

// terminal reports whether the job has reached a sticky terminal state —
// the retention policy may only evict terminal jobs.
func (j *job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case stateDone, stateFailed, stateCanceled, stateDeadline, stateBudget, stateShed:
		return true
	}
	return false
}

func (j *job) setState(st jobState) {
	j.mu.Lock()
	j.state = st
	j.mu.Unlock()
}

func (j *job) finish(st jobState, output, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == stateDone || j.state == stateFailed || j.state == stateCanceled ||
		j.state == stateDeadline || j.state == stateBudget || j.state == stateShed {
		return // terminal states are sticky
	}
	j.state = st
	j.output = output
	j.errMsg = errMsg
	close(j.done)
}

func (j *job) addResumed(n int) {
	j.mu.Lock()
	j.resumed += n
	j.mu.Unlock()
}

// jobStatus is the JSON view of a job.
type jobStatus struct {
	ID      string   `json:"id"`
	Kind    jobKind  `json:"kind"`
	State   jobState `json:"state"`
	Output  string   `json:"output,omitempty"`
	Error   string   `json:"error,omitempty"`
	Resumed int      `json:"resumed,omitempty"`
}

func (j *job) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return jobStatus{
		ID:      j.id,
		Kind:    j.kind,
		State:   j.state,
		Output:  j.output,
		Error:   j.errMsg,
		Resumed: j.resumed,
	}
}

// classify maps a run's error to its terminal state: interruptions are
// structured outcomes, anything else is a failure.
func classify(err error) (jobState, string) {
	if err == nil {
		return stateDone, ""
	}
	if i := runctl.AsInterrupt(err); i != nil {
		switch i.Reason {
		case runctl.Canceled:
			return stateCanceled, err.Error()
		case runctl.WallDeadline:
			return stateDeadline, err.Error()
		case runctl.SimBudget:
			return stateBudget, err.Error()
		}
	}
	if errors.Is(err, context.Canceled) {
		return stateCanceled, err.Error()
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return stateDeadline, err.Error()
	}
	return stateFailed, err.Error()
}
