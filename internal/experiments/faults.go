package experiments

import (
	"fmt"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/radixsort"
)

func init() {
	register(Experiment{ID: "X8", Name: "fault-resilience", Run: runFaultResilience})
}

// runFaultResilience runs the radix-sort workload at 200% oversubscription
// under increasingly hostile seeded fault schedules and shows two things. First,
// the recovery policies hold: every injected failure is absorbed as a retry,
// a reissued unmap, a replayed fault round, or a degradation to coherent
// host-pinned access — the workload still completes and still produces the
// discard savings. Second, discard's traffic cut survives the faults: the
// directive removes redundant transfers whether or not the transfers that
// remain need retrying.
//
// Each run constructs its own Injector from the shared schedule (a Config is
// shareable; an Injector never is), and the driver is single-threaded per
// run, so the tables are byte-identical at any runner parallelism.
func runFaultResilience(o Options) (*Table, error) {
	t := &Table{
		ID:    "X8",
		Title: "Extension (robustness): discard savings and recovery under injected faults (Radix-sort @200%)",
		Header: []string{"Schedule", "System", "Runtime", "Traffic GB",
			"Retries", "Reissues", "Replays", "Degraded", "Discard cut"},
	}
	schedules := []struct {
		name  string
		fault *faultinject.Config
	}{
		{"fault-free", nil},
		{"moderate", &faultinject.Config{
			Seed:          11,
			DMAFailProb:   0.02,
			UnmapFailProb: 0.01,
		}},
		{"harsh", &faultinject.Config{
			Seed:              13,
			DMAFailProb:       0.10,
			UnmapFailProb:     0.05,
			FaultBufferBlocks: 4,
			Windows: []faultinject.Window{{
				Link:   faultinject.LinkPCIe,
				Start:  0,
				Dur:    20 * sim.Millisecond,
				Factor: 3,
			}},
		}},
	}
	systems := []workloads.System{workloads.UVMOpt, workloads.UvmDiscard}
	ns := len(systems)
	results := make([]workloads.Result, len(schedules)*ns)
	err := runCells(o, workloads.Platform{OversubPercent: 200}, len(results), func(p workloads.Platform, i int) error {
		rs, gpu := radixsort.Preset(o.Quick)
		p.GPU, p.Faults = gpu, schedules[i/ns].fault
		r, err := workloads.Run(p, systems[i%ns], rs, nil)
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		base := results[i/ns*ns] // the schedule's UVM-opt run
		cut := "-"
		if i%ns > 0 && base.TrafficBytes > 0 {
			cut = fmt.Sprintf("%.0f%%", 100*(1-float64(r.TrafficBytes)/float64(base.TrafficBytes)))
		}
		t.AddRow(schedules[i/ns].name, systems[i%ns].String(), r.Runtime.String(), fmtGB(r.TrafficBytes),
			fmt.Sprint(r.MigrateRetries), fmt.Sprint(r.UnmapRetries),
			fmt.Sprint(r.FaultReplays), fmt.Sprint(r.DegradedXfers), cut)
	}
	t.Notes = append(t.Notes,
		"schedules are seeded: every cell is deterministic and identical at any -j",
		"Degraded counts transfers that fell back to coherent host-pinned access after the retry budget")
	return t, nil
}
