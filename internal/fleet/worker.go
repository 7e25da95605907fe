package fleet

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"uvmdiscard/internal/experiments"
	"uvmdiscard/internal/runctl"
)

// RunnerFunc executes one leased job and returns its rendered result. The
// runner must pass onControl through to the run's control construction
// (experiments.Options.OnControl) so the worker can renew the lease from
// runctl checkpoints; onControl may be nil. Tests substitute slow or failing
// runners.
type RunnerFunc func(ctx context.Context, spec JobSpec, onControl func(*runctl.Control)) (string, error)

// RunExperiment is the production runner: resolve the experiment artifact
// and run it with the job's Quick flag. Deterministic — the same spec
// renders byte-identical output on any worker, which is what lets the
// coordinator assert duplicates byte-identical.
func RunExperiment(ctx context.Context, spec JobSpec, onControl func(*runctl.Control)) (string, error) {
	e, ok := experiments.Lookup(spec.Experiment)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	tbl, err := e.Run(experiments.Options{
		Quick:     spec.Quick,
		Ctx:       ctx,
		OnControl: onControl,
	})
	if err != nil {
		return "", err
	}
	return tbl.String(), nil
}

// WorkerConfig tunes a pulling worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator (must be unique in the
	// fleet).
	Name string
	// Capacity is the declared concurrent-job capacity (placement input);
	// <1 means 1.
	Capacity int
	// MemBytes is the declared memory, advertised for observability.
	MemBytes uint64
	// PollInterval is the idle delay between lease polls; <=0 means 250ms.
	PollInterval time.Duration
	// HeartbeatInterval is the liveness cadence; <=0 means 2s.
	HeartbeatInterval time.Duration
	// Runner executes leased jobs; nil means RunExperiment.
	Runner RunnerFunc
	// Log receives worker events; nil discards them.
	Log *log.Logger
}

// Worker pulls leased jobs from a coordinator and runs them. Run blocks
// until the context is canceled or Kill is called; every goroutine the
// worker starts is joined before Run returns.
type Worker struct {
	cfg    WorkerConfig
	client *Client

	killed  atomic.Bool
	cancels struct {
		sync.Mutex
		fn context.CancelFunc
	}
}

// NewWorker builds a worker speaking to the coordinator behind client.
func NewWorker(cfg WorkerConfig, client *Client) *Worker {
	if cfg.Capacity < 1 {
		cfg.Capacity = 1
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 2 * time.Second
	}
	if cfg.Runner == nil {
		cfg.Runner = RunExperiment
	}
	return &Worker{cfg: cfg, client: client}
}

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Log != nil {
		w.cfg.Log.Printf(format, args...)
	}
}

// Kill is the SIGKILL-equivalent used by the chaos harness: from this
// instant the worker sends nothing further — no renewals, no heartbeats, no
// result reports — and every in-flight simulation is canceled. The
// coordinator must discover the death by lease expiry and heartbeat
// timeout, exactly as it would a kill -9'd process.
func (w *Worker) Kill() {
	w.killed.Store(true)
	w.cancels.Lock()
	if w.cancels.fn != nil {
		w.cancels.fn()
	}
	w.cancels.Unlock()
}

// Killed reports whether Kill was called.
func (w *Worker) Killed() bool { return w.killed.Load() }

// Run registers the worker and pulls jobs until ctx is canceled or the
// worker is killed. It returns the context's error (context.Canceled on a
// graceful stop and on a kill).
func (w *Worker) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	w.cancels.Lock()
	w.cancels.fn = cancel
	w.cancels.Unlock()
	if w.killed.Load() {
		return context.Canceled
	}
	if err := w.register(ctx); err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go w.heartbeatLoop(ctx, &wg)
	for i := 0; i < w.cfg.Capacity; i++ {
		wg.Add(1)
		go w.slotLoop(ctx, &wg)
	}
	wg.Wait()
	return ctx.Err()
}

// register announces the worker, retrying until it lands or ctx dies — a
// worker started before its coordinator simply waits for it.
func (w *Worker) register(ctx context.Context) error {
	for {
		if w.killed.Load() {
			return context.Canceled
		}
		err := w.client.Register(ctx, w.cfg.Name, w.cfg.Capacity, w.cfg.MemBytes)
		if err == nil {
			return nil
		}
		w.logf("fleet worker %s: register: %v (retrying)", w.cfg.Name, err)
		if serr := sleepCtx(ctx, 500*time.Millisecond); serr != nil {
			return serr
		}
	}
}

func (w *Worker) heartbeatLoop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	t := time.NewTicker(w.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if w.killed.Load() {
			return
		}
		err := w.client.Heartbeat(ctx, w.cfg.Name)
		if errors.Is(err, ErrUnknownWorker) {
			// Coordinator restarted and lost its soft-state registry.
			if w.register(ctx) != nil {
				return
			}
		}
	}
}

// slotLoop is one capacity slot: poll, run, report, repeat.
func (w *Worker) slotLoop(ctx context.Context, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if ctx.Err() != nil || w.killed.Load() {
			return
		}
		grant, err := w.client.Lease(ctx, w.cfg.Name)
		switch {
		case errors.Is(err, ErrUnknownWorker):
			if w.register(ctx) != nil {
				return
			}
			continue
		case err != nil:
			// Coordinator unreachable (crashed, restarting): back off and
			// keep polling — workers outlive coordinator restarts.
			if sleepCtx(ctx, w.cfg.PollInterval) != nil {
				return
			}
			continue
		case grant == nil:
			if sleepCtx(ctx, w.cfg.PollInterval) != nil {
				return
			}
			continue
		}
		w.runLeased(ctx, grant)
	}
}

// runLeased executes one granted job under its lease: renewals flow from
// runctl checkpoints while the simulation runs, and the result is reported
// idempotently with retries that bridge a coordinator restart.
func (w *Worker) runLeased(ctx context.Context, g *LeaseGrant) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Renewal plumbing: the run's control observer pokes renewCh at every
	// progress checkpoint (non-blocking — the sim must never stall on the
	// fleet layer); the renewal goroutine rate-limits actual renew calls to
	// about a third of the TTL. If the coordinator says the lease is stale,
	// the run is canceled and its result discarded.
	renewCh := make(chan struct{}, 1)
	onControl := func(c *runctl.Control) {
		c.SetObserver(func(runctl.Progress) {
			select {
			case renewCh <- struct{}{}:
			default:
			}
		})
	}
	ttl := time.Duration(g.TTLMillis) * time.Millisecond
	interval := ttl / 3
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	var lost atomic.Bool
	var renewWG sync.WaitGroup
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		last := time.Now()
		for {
			select {
			case <-jctx.Done():
				return
			case <-renewCh:
			}
			if time.Since(last) < interval {
				continue
			}
			if w.killed.Load() {
				return
			}
			err := w.client.Renew(jctx, w.cfg.Name, g.JobID, g.Attempt)
			switch {
			case errors.Is(err, ErrStale):
				w.logf("fleet worker %s: job %s attempt %d: lease lost (%v); abandoning run",
					w.cfg.Name, g.JobID, g.Attempt, err)
				lost.Store(true)
				cancel()
				return
			case err != nil:
				// Transient (coordinator restarting): keep running; the
				// next checkpoint retries.
			default:
				last = time.Now()
			}
		}
	}()

	output, runErr := w.cfg.Runner(jctx, g.Spec, onControl)
	cancel()
	renewWG.Wait()

	if w.killed.Load() || lost.Load() || ctx.Err() != nil {
		// Killed, lease lost, or graceful stop: report nothing. The lease
		// expires and the coordinator reschedules.
		return
	}
	errMsg := ""
	if runErr != nil {
		errMsg = runErr.Error()
	}
	w.report(ctx, g, output, errMsg)
}

// report delivers the attempt's outcome, retrying across coordinator
// restarts. Reports are idempotent on the coordinator (keyed by job ID +
// attempt), so retrying a report that actually landed is harmless — it is
// classified duplicate or stale and dropped.
func (w *Worker) report(ctx context.Context, g *LeaseGrant, output, errMsg string) {
	backoff := 100 * time.Millisecond
	for tries := 0; tries < 20; tries++ {
		if w.killed.Load() || ctx.Err() != nil {
			return
		}
		status, err := w.client.Complete(ctx, w.cfg.Name, g.JobID, g.Attempt, output, errMsg)
		switch {
		case err == nil:
			if status != CompleteRecorded {
				w.logf("fleet worker %s: job %s attempt %d: report classified %s",
					w.cfg.Name, g.JobID, g.Attempt, status)
			}
			return
		case errors.Is(err, ErrMismatch):
			// Determinism violation: the coordinator refused our bytes.
			// Nothing to retry — scream and move on.
			w.logf("fleet worker %s: job %s attempt %d: REFUSED: %v", w.cfg.Name, g.JobID, g.Attempt, err)
			return
		case errors.Is(err, ErrNoSuchJob):
			w.logf("fleet worker %s: job %s attempt %d: %v", w.cfg.Name, g.JobID, g.Attempt, err)
			return
		}
		if sleepCtx(ctx, backoff) != nil {
			return
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
	w.logf("fleet worker %s: job %s attempt %d: result report never landed; lease will expire",
		w.cfg.Name, g.JobID, g.Attempt)
}

// sleepCtx sleeps d or until ctx is done, returning ctx.Err in that case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
