package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"uvmdiscard/internal/runctl"
)

// RunResult is the outcome of one experiment executed by RunAll.
type RunResult struct {
	// Experiment is the experiment that ran.
	Experiment Experiment
	// Table is the rendered result; nil when Err is set.
	Table *Table
	// Err is the experiment's error, or a captured panic (with its stack).
	// A failure never aborts the other experiments.
	Err error
	// Wall is how long the experiment took; zero for experiments served
	// from the journal or canceled before they started.
	Wall time.Duration
	// Resumed marks a result served from a batch journal instead of being
	// re-run.
	Resumed bool
}

// Interrupted reports whether this result is a run the batch context or a
// budget stopped (as opposed to an experiment that genuinely failed).
func (r RunResult) Interrupted() bool {
	return runctl.AsInterrupt(r.Err) != nil || errors.Is(r.Err, context.Canceled) ||
		errors.Is(r.Err, context.DeadlineExceeded)
}

// RunAll runs the selected experiments one at a time, in selection order,
// and returns one RunResult per experiment in that order, so rendering the
// tables in result order gives the same bytes whatever GOMAXPROCS is. Each
// experiment runs the independent simulations of its table (its cells)
// concurrently through runCells, under the one process-wide limit of
// GOMAXPROCS cells in flight.
//
// With a journal (j nil means none), an experiment it already holds is
// returned from it, marked Resumed, without running, and a fresh success
// is journaled, fsynced, before progress sees it, so the batch can be
// killed and resumed at any point and still render byte-identical output.
// A journal write error becomes that result's error, with no table.
//
// Cancellation comes from opts.Ctx alone: once it is done, the experiment
// in flight is interrupted at its next driver checkpoint, and every
// experiment after it is reported with a ctx-derived error and never
// started — canceled runs are reported, never silently dropped.
//
// Isolation rules (what makes concurrent cells safe — and what any new
// experiment must preserve):
//
//   - Every cell builds its own core.Driver, metrics.Collector,
//     trace.Recorder, and sim.RNG (workloads.Run and Platform.NewContext
//     do). Nothing run-scoped may live in a package-level variable.
//   - Inputs the cells of one experiment share, such as a *dnn.ModelSpec,
//     a *faultinject.Config or the sweep's parameter slices, are read-only
//     while the cells run. A cell writes only its own index of the
//     experiment's result slices.
//   - Package-level data in this package (the registry, paper reference
//     tables, column layouts) is written only during init and treated as
//     read-only afterwards; the cell-slot limiter is the one exception
//     and guards itself.
//   - Options is passed by value; experiments must not mutate shared
//     pointers reached through it.
//
// A panic inside an experiment is recovered and reported as that
// experiment's Err, stack attached; the remaining experiments keep running.
//
// The optional progress callback is invoked once per experiment, in
// selection order, as its result is final.
func RunAll(selected []Experiment, opts Options, j *Journal, progress func(RunResult)) []RunResult {
	results := make([]RunResult, len(selected))
	for i, e := range selected {
		r := RunResult{Experiment: e}
		if tbl, ok := j.Done(e.ID); ok {
			r.Table, r.Resumed = tbl, true
		} else if opts.Ctx != nil && opts.Ctx.Err() != nil {
			r.Err = fmt.Errorf("experiment %s (%s) not started: %w", e.ID, e.Name, opts.Ctx.Err())
		} else {
			r = runOne(e, opts)
			if err := j.Record(r); err != nil {
				r.Table, r.Err = nil, err
			}
		}
		results[i] = r
		if progress != nil {
			progress(r)
		}
	}
	return results
}

// runOne executes a single experiment, converting a panic into an error
// carrying the goroutine stack so one broken experiment cannot take down
// the whole run.
func runOne(e Experiment, opts Options) (r RunResult) {
	r.Experiment = e
	//uvmlint:ignore simdet -- RunResult.Wall reports host wall time, not simulated time
	started := time.Now()
	defer func() {
		//uvmlint:ignore simdet -- RunResult.Wall reports host wall time, not simulated time
		r.Wall = time.Since(started)
		if p := recover(); p != nil {
			r.Table = nil
			r.Err = fmt.Errorf("experiment %s (%s) panicked: %v\n%s", e.ID, e.Name, p, debug.Stack())
		}
	}()
	r.Table, r.Err = e.Run(opts)
	return r
}

// Failed filters the results down to those that errored (or panicked).
func Failed(results []RunResult) []RunResult {
	var out []RunResult
	for _, r := range results {
		if r.Err != nil {
			out = append(out, r)
		}
	}
	return out
}
