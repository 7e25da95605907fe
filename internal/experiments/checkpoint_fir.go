package experiments

import (
	"fmt"

	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
)

func init() {
	register(Experiment{ID: "X10", Name: "checkpoint-fir", Run: runCheckpointFIR})
}

// runCheckpointFIR is the checkpoint-aware FIR run backing the
// crash-survivable service jobs: a single UvmDiscard run at 200%
// oversubscription that honors Options.Checkpoint — resuming from a prior
// snapshot when one is supplied and capturing new ones at the configured
// cadence. The rendered table carries ONLY the deterministic simulation
// result: a run resumed from any snapshot must produce the exact bytes of
// an uninterrupted run, and the fleet coordinator byte-compares duplicate
// reports, so attempt-local provenance (steps re-executed, resume point,
// capture count) deliberately stays out of the artifact. Callers read it
// from Options.Checkpoint.Stats instead; the fleet layer surfaces it
// through worker logs and the uvmfleet_checkpoint_* counters.
func runCheckpointFIR(o Options) (*Table, error) {
	f, gpu := fir.Preset(o.Quick)
	if o.Quick {
		// 24 windows: enough step boundaries for mid-job kills to land
		// between checkpoints while the run still finishes in well under a
		// second.
		f.InputBytes, f.WindowBytes = 768*units.MiB, 32*units.MiB
	}
	p := workloads.Platform{GPU: gpu, Gen: pcie.Gen4, OversubPercent: 200}
	r, err := workloads.Run(o.arm(p), workloads.UvmDiscard, f, o.Checkpoint)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "X10",
		Title:  "Extension (robustness): checkpointed FIR @200% (resumes byte-identical mid-job)",
		Header: []string{"System", "Runtime", "Traffic GB", "Saved D2H GB", "Steps"},
	}
	t.AddRow(workloads.UvmDiscard.String(), r.Runtime.String(), fmtGB(r.TrafficBytes),
		fmtGB(r.SavedD2H), fmt.Sprintf("%d", f.Steps()))
	return t, nil
}
