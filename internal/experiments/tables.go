package experiments

import (
	"fmt"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/hashjoin"
	"uvmdiscard/internal/workloads/radixsort"
)

func init() {
	register(Experiment{ID: "T3", Name: "fir-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable("T3", "Normalized runtime of FIR (PCIe-3/4)", micro(o, fir.Preset), paperT3)
	}})
	register(Experiment{ID: "T4", Name: "fir-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable("T4", "PCIe traffic (GB) of FIR", micro(o, fir.Preset), paperT4, !o.Quick)
	}})
	register(Experiment{ID: "T5", Name: "radix-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable("T5", "Normalized runtime of Radix-sort (PCIe-3/4)", micro(o, radixsort.Preset), paperT5)
	}})
	register(Experiment{ID: "T6", Name: "radix-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable("T6", "PCIe traffic (GB) of Radix-sort", micro(o, radixsort.Preset), paperT6, !o.Quick)
	}})
	register(Experiment{ID: "T7", Name: "hashjoin-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable("T7", "Normalized runtime of Hash-join (PCIe-3/4)", micro(o, hashjoin.Preset), paperT7)
	}})
	register(Experiment{ID: "T8", Name: "hashjoin-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable("T8", "PCIe traffic (GB) of Hash-join", micro(o, hashjoin.Preset), paperT8, !o.Quick)
	}})
}

// microRunner runs one micro-benchmark configuration.
type microRunner func(p workloads.Platform, sys workloads.System) (workloads.Result, error)

// Paper reference values, indexed [system][ovsp column]. Runtime entries
// are "gen3/gen4" pairs; traffic entries are GB.
var (
	paperT3 = map[workloads.System][4]string{
		workloads.UvmDiscard:     {"1/1.01", "0.51/0.52", "0.62/0.65", "0.71/0.71"},
		workloads.UvmDiscardLazy: {"1/1.00", "0.52/0.52", "0.62/0.66", "0.72/0.71"},
	}
	paperT4 = map[workloads.System][4]string{
		workloads.UVMOpt:         {"5.66", "11.44", "13.38", "14.34"},
		workloads.UvmDiscard:     {"5.66", "5.88", "7.81", "8.78"},
		workloads.UvmDiscardLazy: {"5.66", "5.88", "7.81", "8.78"},
	}
	paperT5 = map[workloads.System][4]string{
		workloads.UvmDiscard:     {"1.21/1.28", "0.87/0.83", "0.95/0.93", "0.97/0.97"},
		workloads.UvmDiscardLazy: {"1.00/1.02", "0.87/0.83", "0.95/0.92", "0.97/0.99"},
	}
	paperT6 = map[workloads.System][4]string{
		workloads.UVMOpt:         {"5.00", "300.80", "345.40", "356.85"},
		workloads.UvmDiscard:     {"5.00", "244.93", "315.50", "339.76"},
		workloads.UvmDiscardLazy: {"5.00", "244.92", "315.52", "339.76"},
	}
	paperT7 = map[workloads.System][4]string{
		workloads.UvmDiscard:     {"1.05/1.09", "0.24/0.31", "0.51/0.54", "0.86/0.89"},
		workloads.UvmDiscardLazy: {"1.02/1.04", "0.24/0.31", "0.51/0.54", "0.86/0.88"},
	}
	paperT8 = map[workloads.System][4]string{
		workloads.UVMOpt:         {"2.98", "34.62", "36.42", "58.23"},
		workloads.UvmDiscard:     {"2.98", "4.89", "16.19", "46.61"},
		workloads.UvmDiscardLazy: {"2.98", "4.89", "16.19", "46.44"},
	}
)

// micro runs a fresh step workload at its full or quick preset on each
// cell's platform.
func micro[S workloads.Stepper](o Options, preset func(quick bool) (S, gpudev.Profile)) microRunner {
	return func(p workloads.Platform, sys workloads.System) (workloads.Result, error) {
		s, gpu := preset(o.Quick)
		p.GPU = gpu
		return workloads.Run(o.arm(p), sys, s, nil)
	}
}

var ovspColumns = []struct {
	percent int
	label   string
}{
	{0, "<100%"}, {200, "200%"}, {300, "300%"}, {400, "400%"},
}

var tableSystems = []workloads.System{
	workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy,
}

// runtimeTable builds a normalized-runtime table in the paper's layout:
// one row per system, one column per oversubscription ratio, each cell a
// PCIe-3/PCIe-4 pair normalized to UVM-opt at the same ratio.
func runtimeTable(id, title string, run microRunner, paper map[workloads.System][4]string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Ovsp. rate", "<100%", "200%", "300%", "400%"},
	}
	// results[gen][ovsp][system]
	type key struct {
		gen  pcie.Generation
		ovsp int
		sys  workloads.System
	}
	results := make(map[key]workloads.Result, 2*len(ovspColumns)*len(tableSystems))
	for _, gen := range []pcie.Generation{pcie.Gen3, pcie.Gen4} {
		for _, col := range ovspColumns {
			for _, sys := range tableSystems {
				p := workloads.Platform{Gen: gen, OversubPercent: col.percent}
				r, err := run(p, sys)
				if err != nil {
					return nil, fmt.Errorf("%s %v %v %d%%: %w", id, gen, sys, col.percent, err)
				}
				results[key{gen, col.percent, sys}] = r
			}
		}
	}
	for _, sys := range tableSystems {
		row := make([]string, 0, len(ovspColumns)+1)
		row = append(row, sys.String())
		for _, col := range ovspColumns {
			var cell [2]float64
			for i, gen := range []pcie.Generation{pcie.Gen3, pcie.Gen4} {
				base := results[key{gen, col.percent, workloads.UVMOpt}]
				r := results[key{gen, col.percent, sys}]
				cell[i] = float64(r.Runtime) / float64(base.Runtime)
			}
			row = append(row, fmtRatio(cell[0], cell[1]))
		}
		t.AddRow(row...)
		if p, ok := paper[sys]; ok {
			t.AddRow("  (paper)", p[0], p[1], p[2], p[3])
		}
	}
	return t, nil
}

// trafficTable builds a PCIe-traffic table (traffic is independent of the
// PCIe generation in the driver model; the paper reports a single value).
// When fullScale is false the absolute GB differ from the paper (sizes are
// scaled down) and a note says so.
func trafficTable(id, title string, run microRunner, paper map[workloads.System][4]string, fullScale bool) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Ovsp. rate", "<100%", "200%", "300%", "400%"},
	}
	for _, sys := range tableSystems {
		row := []string{sys.String()}
		for _, col := range ovspColumns {
			p := workloads.Platform{Gen: pcie.Gen4, OversubPercent: col.percent}
			r, err := run(p, sys)
			if err != nil {
				return nil, fmt.Errorf("%s %v %d%%: %w", id, sys, col.percent, err)
			}
			row = append(row, fmtGB(r.TrafficBytes))
		}
		t.AddRow(row...)
		if p, ok := paper[sys]; ok {
			t.AddRow("  (paper)", p[0], p[1], p[2], p[3])
		}
	}
	if !fullScale {
		t.Notes = append(t.Notes, "quick mode: sizes scaled down; compare ratios, not absolute GB")
	}
	return t, nil
}
