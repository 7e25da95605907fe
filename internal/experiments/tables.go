package experiments

import (
	"fmt"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/hashjoin"
	"uvmdiscard/internal/workloads/radixsort"
)

func init() {
	register(Experiment{ID: "T3", Name: "fir-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable(o, "T3", "Normalized runtime of FIR (PCIe-3/4)", micro(o, fir.Preset), paperT3)
	}})
	register(Experiment{ID: "T4", Name: "fir-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable(o, "T4", "PCIe traffic (GB) of FIR", micro(o, fir.Preset), paperT4)
	}})
	register(Experiment{ID: "T5", Name: "radix-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable(o, "T5", "Normalized runtime of Radix-sort (PCIe-3/4)", micro(o, radixsort.Preset), paperT5)
	}})
	register(Experiment{ID: "T6", Name: "radix-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable(o, "T6", "PCIe traffic (GB) of Radix-sort", micro(o, radixsort.Preset), paperT6)
	}})
	register(Experiment{ID: "T7", Name: "hashjoin-runtime", Run: func(o Options) (*Table, error) {
		return runtimeTable(o, "T7", "Normalized runtime of Hash-join (PCIe-3/4)", micro(o, hashjoin.Preset), paperT7)
	}})
	register(Experiment{ID: "T8", Name: "hashjoin-traffic", Run: func(o Options) (*Table, error) {
		return trafficTable(o, "T8", "PCIe traffic (GB) of Hash-join", micro(o, hashjoin.Preset), paperT8)
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
// cell's (already armed) platform.
func micro[S workloads.Stepper](o Options, preset func(quick bool) (S, gpudev.Profile)) microRunner {
	return func(p workloads.Platform, sys workloads.System) (workloads.Result, error) {
		s, gpu := preset(o.Quick)
		p.GPU = gpu
		return workloads.Run(p, sys, s, nil)
	}
}

var ovspColumns = []struct {
	percent int
	label   string
}{
	{0, "<100%"}, {200, "200%"}, {300, "300%"}, {400, "400%"},
}

// tableSystems are the rows of the micro tables and F5; the first is the
// UVM-opt baseline the runtime tables normalize to.
var tableSystems = []workloads.System{
	workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy,
}

// runtimeGens are the two halves of each runtime table cell.
var runtimeGens = []pcie.Generation{pcie.Gen3, pcie.Gen4}

// runtimeTable builds a normalized-runtime table in the paper's layout:
// one row per system, one column per oversubscription ratio, each cell a
// PCIe-3/PCIe-4 pair normalized to UVM-opt at the same ratio.
func runtimeTable(o Options, id, title string, run microRunner, paper map[workloads.System][4]string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Ovsp. rate", "<100%", "200%", "300%", "400%"},
	}
	// One run per generation, ratio and system, in that nesting order.
	nc, ns := len(ovspColumns), len(tableSystems)
	runtimes := make([]sim.Time, len(runtimeGens)*nc*ns)
	err := runCells(o, workloads.Platform{}, len(runtimes), func(p workloads.Platform, i int) error {
		gen, col, sys := runtimeGens[i/(nc*ns)], ovspColumns[i/ns%nc], tableSystems[i%ns]
		p.Gen, p.OversubPercent = gen, col.percent
		r, err := run(p, sys)
		if err != nil {
			return fmt.Errorf("%s %v %v %d%%: %w", id, gen, sys, col.percent, err)
		}
		runtimes[i] = r.Runtime
		return nil
	})
	if err != nil {
		return nil, err
	}
	for s, sys := range tableSystems {
		row := make([]string, 0, nc+1)
		row = append(row, sys.String())
		for c := range ovspColumns {
			var cell [2]float64
			for g := range runtimeGens {
				base := (g*nc + c) * ns
				cell[g] = float64(runtimes[base+s]) / float64(runtimes[base])
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
// In quick mode the absolute GB differ from the paper (sizes are scaled
// down) and a note says so.
func trafficTable(o Options, id, title string, run microRunner, paper map[workloads.System][4]string) (*Table, error) {
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{"Ovsp. rate", "<100%", "200%", "300%", "400%"},
	}
	// One run per system and ratio, in that nesting order.
	nc := len(ovspColumns)
	traffic := make([]uint64, len(tableSystems)*nc)
	err := runCells(o, workloads.Platform{Gen: pcie.Gen4}, len(traffic), func(p workloads.Platform, i int) error {
		sys, col := tableSystems[i/nc], ovspColumns[i%nc]
		p.OversubPercent = col.percent
		r, err := run(p, sys)
		if err != nil {
			return fmt.Errorf("%s %v %d%%: %w", id, sys, col.percent, err)
		}
		traffic[i] = r.TrafficBytes
		return nil
	})
	if err != nil {
		return nil, err
	}
	for s, sys := range tableSystems {
		row := []string{sys.String()}
		for c := range ovspColumns {
			row = append(row, fmtGB(traffic[s*nc+c]))
		}
		t.AddRow(row...)
		if p, ok := paper[sys]; ok {
			t.AddRow("  (paper)", p[0], p[1], p[2], p[3])
		}
	}
	if o.Quick {
		t.Notes = append(t.Notes, "quick mode: sizes scaled down; compare ratios, not absolute GB")
	}
	return t, nil
}
