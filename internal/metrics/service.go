package metrics

import "sync/atomic"

// ServiceCollector counts the uvmsimd service's admission and outcome
// events. Unlike Collector — which is per-run, single-threaded simulation
// state — a ServiceCollector is shared by every goroutine in the service
// process, so all counters are atomics. Interrupted work is a first-class
// outcome here: a canceled or deadline-expired run increments its own
// counter and is never folded into Failed or silently dropped.
type ServiceCollector struct {
	// Admitted counts jobs accepted into the bounded queue.
	Admitted atomic.Int64
	// Shed counts jobs refused: queue-full 503s plus jobs still queued when
	// a graceful shutdown drained the queue.
	Shed atomic.Int64
	// Completed counts jobs that finished successfully.
	Completed atomic.Int64
	// Failed counts jobs that finished with a genuine error (not an
	// interruption).
	Failed atomic.Int64
	// Canceled counts runs interrupted by explicit cancellation (DELETE on
	// the job, or the batch context dying).
	Canceled atomic.Int64
	// DeadlineExpired counts runs the watchdog killed at their wall-clock
	// deadline.
	DeadlineExpired atomic.Int64
	// BudgetExpired counts runs stopped by their simulated-time budget.
	BudgetExpired atomic.Int64
	// Panics counts panics recovered by per-request isolation; the job
	// fails, the worker survives.
	Panics atomic.Int64
	// Resumed counts journaled experiment results served without re-running
	// when a batch resumed from its journal, plus workload runs resumed from
	// an on-disk checkpoint marker.
	Resumed atomic.Int64
	// CheckpointsSaved counts checkpoint files durably written for
	// checkpoint-enabled workload runs.
	CheckpointsSaved atomic.Int64
	// CheckpointsCorrupt counts resumes that rejected a torn, corrupt or
	// foreign checkpoint and saved every step, as a fresh run does.
	CheckpointsCorrupt atomic.Int64
}

// ServiceSnapshot is a point-in-time copy of the counters, shaped for JSON.
type ServiceSnapshot struct {
	Admitted        int64 `json:"admitted"`
	Shed            int64 `json:"shed"`
	Completed       int64 `json:"completed"`
	Failed          int64 `json:"failed"`
	Canceled        int64 `json:"canceled"`
	DeadlineExpired int64 `json:"deadline_expired"`
	BudgetExpired   int64 `json:"budget_expired"`
	Panics          int64 `json:"panics"`
	Resumed         int64 `json:"resumed"`

	CheckpointsSaved   int64 `json:"checkpoints_saved"`
	CheckpointsCorrupt int64 `json:"checkpoints_corrupt"`
}

// Snapshot copies the counters.
func (s *ServiceCollector) Snapshot() ServiceSnapshot {
	return ServiceSnapshot{
		Admitted:        s.Admitted.Load(),
		Shed:            s.Shed.Load(),
		Completed:       s.Completed.Load(),
		Failed:          s.Failed.Load(),
		Canceled:        s.Canceled.Load(),
		DeadlineExpired: s.DeadlineExpired.Load(),
		BudgetExpired:   s.BudgetExpired.Load(),
		Panics:          s.Panics.Load(),
		Resumed:         s.Resumed.Load(),

		CheckpointsSaved:   s.CheckpointsSaved.Load(),
		CheckpointsCorrupt: s.CheckpointsCorrupt.Load(),
	}
}
