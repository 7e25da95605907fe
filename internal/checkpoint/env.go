package checkpoint

// Env is the checkpointing contract a caller (uvmsimd's -data-dir runs, or
// the _perfbench checkpoint ladder) hands to a checkpoint-aware workload
// run. The workload consumes Restore once at startup, calls Save with a
// freshly encoded snapshot at each due boundary, and reports what happened
// in Stats. A nil *Env means checkpointing is off — the workload runs
// exactly as before, off the warm path.
type Env struct {
	// Restore, when non-nil, is an encoded snapshot blob (envelope included)
	// the run should resume from. A blob that fails to decode or restore is
	// reported through OnReject and the run restarts from zero — corrupt
	// state is never silently resumed.
	Restore []byte

	// Save persists an encoded snapshot blob. Called at each due step
	// boundary with a complete, enveloped snapshot. Errors are non-fatal to
	// the run (the simulation's answer does not depend on durability) but
	// are counted in Stats.SaveErrors.
	Save func(blob []byte) error

	// Every is the capture cadence in steps: a snapshot is taken after every
	// Every-th step, counted from the start of the whole run (absolute step
	// numbering, so a resumed run captures at the same boundaries as an
	// uninterrupted one). Zero disables capture.
	Every int

	// OnReject, when non-nil, is told why a Restore blob was rejected just
	// before the run falls back to restarting from zero.
	OnReject func(reason string)

	// Stats is filled in by the run.
	Stats Stats
}

// Stats reports what a checkpoint-aware run actually did.
type Stats struct {
	// Resumed is true when the run restored from Env.Restore.
	Resumed bool
	// ResumedFrom is the step index execution resumed at (0 when !Resumed).
	ResumedFrom int
	// StepsExecuted counts the steps this process actually executed —
	// total steps minus the ones the restored snapshot made redundant.
	StepsExecuted int
	// Captures counts snapshots successfully handed to Save.
	Captures int
	// Rejected is true when a Restore blob was present but rejected.
	Rejected bool
	// SaveErrors counts Save calls that returned an error.
	SaveErrors int
}

// Due reports whether a snapshot should be captured after step (0-based)
// has completed: nil-safe, honoring the Every cadence on absolute step
// numbers.
func (e *Env) Due(step int) bool {
	if e == nil || e.Save == nil || e.Every <= 0 {
		return false
	}
	return (step+1)%e.Every == 0
}
