package experiments

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/radixsort"
)

func init() {
	register(Experiment{ID: "X1", Name: "coherent-remote", Run: runCoherentRemote})
}

// runCoherentRemote tests the paper's §3.2 argument: "a UVM system that
// supports cache-coherent remote memory accesses still needs a discard
// directive to eliminate redundant memory transfers." It runs the
// radix-sort workload at 200% oversubscription on the paper's PCIe-4
// platform and on an NVLink-class coherent link where first touches are
// served remotely and access counters migrate hot blocks — and shows that
// discard keeps eliminating a similar share of traffic in both regimes.
func runCoherentRemote(o Options) (*Table, error) {
	t := &Table{
		ID:    "X1",
		Title: "Extension (§2.3/§3.2): coherent remote access still needs discard (Radix-sort @200%)",
		Header: []string{"Link", "System", "Traffic GB", "Remote GB", "Migrated GB",
			"Runtime", "Discard cut"},
	}
	type linkSpec struct {
		name      string
		gen       pcie.Generation
		threshold int
	}
	for _, link := range []linkSpec{
		{"PCIe-4 (migrate always)", pcie.Gen4, 0},
		{"NVLink coherent (counter=2)", pcie.GenNVLink, 2},
	} {
		var base workloads.Result
		for _, sys := range []workloads.System{workloads.UVMOpt, workloads.UvmDiscard} {
			rs, gpu := radixsort.Preset(o.Quick)
			params := core.DefaultParams()
			params.RemoteAccessMigrateThreshold = link.threshold
			p := workloads.Platform{
				GPU: gpu, Gen: link.gen, OversubPercent: 200, Params: &params,
			}
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
			remote := r.RemoteH2D
			migrated := r.TrafficBytes - remote
			t.AddRow(link.name, sys.String(), fmtGB(r.TrafficBytes), fmtGB(remote),
				fmtGB(migrated), r.Runtime.String(), cut)
		}
	}
	t.Notes = append(t.Notes,
		"remote accesses cross the link without migrating; migrations (and their RMTs) remain for hot blocks",
		"the discard cut persists on the coherent link — the paper's §3.2 argument")
	return t, nil
}
