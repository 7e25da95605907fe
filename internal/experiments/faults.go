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
	for _, sched := range schedules {
		var base workloads.Result
		for _, sys := range []workloads.System{workloads.UVMOpt, workloads.UvmDiscard} {
			rs, gpu := radixsort.Preset(o.Quick)
			p := workloads.Platform{GPU: gpu, OversubPercent: 200, Faults: sched.fault}
			r, err := workloads.Run(o.arm(p), sys, rs, nil)
			if err != nil {
				return nil, err
			}
			cut := "-"
			if sys == workloads.UVMOpt {
				base = r
			} else if base.TrafficBytes > 0 {
				cut = fmt.Sprintf("%.0f%%", 100*(1-float64(r.TrafficBytes)/float64(base.TrafficBytes)))
			}
			t.AddRow(sched.name, sys.String(), r.Runtime.String(), fmtGB(r.TrafficBytes),
				fmt.Sprint(r.MigrateRetries), fmt.Sprint(r.UnmapRetries),
				fmt.Sprint(r.FaultReplays), fmt.Sprint(r.DegradedXfers), cut)
		}
	}
	t.Notes = append(t.Notes,
		"schedules are seeded: every cell is deterministic and identical at any -j",
		"Degraded counts transfers that fell back to coherent host-pinned access after the retry budget")
	return t, nil
}
