package checkpoint

// Env is the checkpointing contract a caller (uvmsimd's -data-dir runs, or
// the _perfbench checkpoint ladder) hands to a checkpoint-aware workload
// run. The run judges Restore once, after its setup, calls Save with a
// freshly encoded marker at each due boundary it has not saved before, and
// reports what happened in Stats. A nil *Env means checkpointing is off —
// the workload runs exactly as before, off the warm path.
type Env struct {
	// Restore, when non-nil, is an encoded marker blob (envelope included)
	// the run should resume from. A blob that fails to decode, names
	// another run's digest or an impossible step is reported through
	// OnReject and the run saves every step, as a fresh one does. Either
	// way the run simulates from step 0, so no blob changes its answer.
	Restore []byte

	// Save persists an encoded marker blob. Called at each due step
	// boundary with a complete, enveloped marker. Errors are non-fatal to
	// the run (the simulation's answer does not depend on durability) but
	// are counted in Stats.SaveErrors.
	Save func(blob []byte) error

	// Every is the save cadence in steps: a marker is saved after every
	// Every-th step, counted from the start of the whole run (absolute step
	// numbering, so a resumed run saves at the same boundaries as an
	// uninterrupted one). Zero disables saving.
	Every int

	// OnReject, when non-nil, is told why a Restore blob was rejected.
	OnReject func(reason string)

	// Stats is filled in by the run.
	Stats Stats
}

// Stats reports what a checkpoint-aware run actually did.
type Stats struct {
	// Resumed is true when the run resumed from Env.Restore.
	Resumed bool
	// ResumedFrom is the marker's step (0 when !Resumed): the interrupted
	// run had saved the steps before it, so this run saves only from it on.
	ResumedFrom int
	// Captures counts markers successfully handed to Save.
	Captures int
	// Rejected is true when a Restore blob was present but rejected.
	Rejected bool
	// SaveErrors counts Save calls that returned an error.
	SaveErrors int
}

// Due reports whether a marker should be saved after step (0-based) has
// completed: nil-safe, honoring the Every cadence on absolute step
// numbers.
func (e *Env) Due(step int) bool {
	if e == nil || e.Save == nil || e.Every <= 0 {
		return false
	}
	return (step+1)%e.Every == 0
}
