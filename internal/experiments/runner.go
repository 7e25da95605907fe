package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"uvmdiscard/internal/runctl"
)

// RunResult is the outcome of one experiment executed by RunAll.
type RunResult struct {
	// Experiment is the experiment that ran.
	Experiment Experiment
	// Index is the experiment's position in the selection passed to RunAll;
	// results are returned sorted by it, so rendering the tables in result
	// order reproduces the serial output byte for byte.
	Index int
	// Table is the rendered result; nil when Err is set.
	Table *Table
	// Err is the experiment's error, or a captured panic (with its stack).
	// A failure never aborts the other experiments.
	Err error
	// Wall is how long the experiment took on its worker goroutine; zero
	// for experiments the batch context canceled before they started.
	Wall time.Duration
	// Resumed marks a result served from a batch journal instead of being
	// re-run (see RunAllJournaled).
	Resumed bool
}

// Interrupted reports whether this result is a run the batch context or a
// budget stopped (as opposed to an experiment that genuinely failed).
func (r RunResult) Interrupted() bool {
	return runctl.AsInterrupt(r.Err) != nil || errors.Is(r.Err, context.Canceled) ||
		errors.Is(r.Err, context.DeadlineExceeded)
}

// RunAll executes the selected experiments across a pool of parallelism
// worker goroutines (values < 1 mean runtime.GOMAXPROCS(0)) and returns one
// RunResult per experiment, in selection order regardless of completion
// order.
//
// Cancellation: when ctx is canceled, dispatch stops promptly — experiments
// not yet handed to a worker are reported with a ctx-derived error and are
// never started, and runs already in flight are interrupted at the next
// driver checkpoint (opts.Ctx is filled in from ctx when nil, so the
// cancellation reaches the simulation loop itself). RunAll returns within
// roughly one in-flight driver operation of the cancel; every selected
// experiment still gets a RunResult — canceled runs are reported, never
// silently dropped. A nil ctx behaves like context.Background().
//
// parallelism bounds the experiments in flight. Inside an experiment, the
// independent simulations of its table (its cells) run concurrently too
// (runCells), and every cell of every experiment shares one process-wide
// limit of GOMAXPROCS cells in flight, so -j 8 on a 2-core host still
// simulates at most two cells at a time.
//
// Isolation rules (what makes this safe — and what any new experiment must
// preserve):
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
// The optional progress callback is invoked once per experiment as it
// finishes, in completion order (not selection order), serialized by an
// internal mutex so callers may print from it without further locking.
func RunAll(ctx context.Context, selected []Experiment, opts Options, parallelism int, progress func(RunResult)) []RunResult {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Ctx == nil {
		opts.Ctx = ctx
	}
	if parallelism < 1 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	if parallelism > len(selected) {
		parallelism = len(selected)
	}
	results := make([]RunResult, len(selected))
	if len(selected) == 0 {
		return results
	}

	var (
		wg         sync.WaitGroup
		progressMu sync.Mutex
	)
	emit := func(r RunResult) {
		results[r.Index] = r
		if progress != nil {
			progressMu.Lock()
			progress(r)
			progressMu.Unlock()
		}
	}
	jobs := make(chan int)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				r := runOne(selected[i], opts)
				r.Index = i
				emit(r)
			}
		}()
	}
dispatch:
	for i := range selected {
		// Checked before the select too: when the context is already dead,
		// a free worker must not win the race and start another run.
		if ctx.Err() != nil {
			for j := i; j < len(selected); j++ {
				emit(RunResult{
					Experiment: selected[j],
					Index:      j,
					Err: fmt.Errorf("experiment %s (%s) not started: %w",
						selected[j].ID, selected[j].Name, ctx.Err()),
				})
			}
			break dispatch
		}
		select {
		case <-ctx.Done():
			// Shed everything not yet started. The in-flight runs notice
			// the same cancellation through opts.Ctx and abort at their
			// next driver checkpoint.
			for j := i; j < len(selected); j++ {
				emit(RunResult{
					Experiment: selected[j],
					Index:      j,
					Err: fmt.Errorf("experiment %s (%s) not started: %w",
						selected[j].ID, selected[j].Name, ctx.Err()),
				})
			}
			break dispatch
		case jobs <- i:
		}
	}
	close(jobs)
	wg.Wait()
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
