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
	links := []linkSpec{
		{"PCIe-4 (migrate always)", pcie.Gen4, 0},
		{"NVLink coherent (counter=2)", pcie.GenNVLink, 2},
	}
	systems := []workloads.System{workloads.UVMOpt, workloads.UvmDiscard}
	ns := len(systems)
	results := make([]workloads.Result, len(links)*ns)
	err := runCells(o, workloads.Platform{OversubPercent: 200}, len(results), func(p workloads.Platform, i int) error {
		link := links[i/ns]
		rs, gpu := radixsort.Preset(o.Quick)
		params := core.DefaultParams()
		params.RemoteAccessMigrateThreshold = link.threshold
		p.GPU, p.Gen, p.Params = gpu, link.gen, &params
		r, err := workloads.Run(p, systems[i%ns], rs, nil)
		results[i] = r
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, r := range results {
		base := results[i/ns*ns] // the link's UVM-opt run
		cut := "-"
		if i%ns > 0 && base.TrafficBytes > 0 {
			cut = fmt.Sprintf("%.0f%%", 100*(1-float64(r.TrafficBytes)/float64(base.TrafficBytes)))
		}
		remote := r.RemoteH2D
		migrated := r.TrafficBytes - remote
		t.AddRow(links[i/ns].name, systems[i%ns].String(), fmtGB(r.TrafficBytes), fmtGB(remote),
			fmtGB(migrated), r.Runtime.String(), cut)
	}
	t.Notes = append(t.Notes,
		"remote accesses cross the link without migrating; migrations (and their RMTs) remain for hot blocks",
		"the discard cut persists on the coherent link — the paper's §3.2 argument")
	return t, nil
}
