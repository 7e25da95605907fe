package experiments

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "T2", Name: "api-costs", Run: runTable2})
	register(Experiment{ID: "F4", Name: "prefetch-throughput", Run: runFigure4})
}

// runTable2 reproduces Table 2: the cost of cudaMalloc, cudaFree, and
// UvmDiscard for 2/8/32/128 MB buffers. The simulator's cost curves are
// calibrated on these very measurements, so this doubles as a calibration
// check; UvmDiscardLazy (not in the paper's table) is shown for contrast.
func runTable2(Options) (*Table, error) {
	costs := core.DefaultAPICosts()
	paper := map[string][4]float64{
		"cudaMalloc": {48, 184, 726, 939},
		"cudaFree":   {32, 38, 63, 1184},
		"UvmDiscard": {4, 7, 20, 70},
	}
	sizes := []units.Size{2 * units.MiB, 8 * units.MiB, 32 * units.MiB, 128 * units.MiB}
	t := &Table{
		ID:     "T2",
		Title:  "Cost of CUDA API calls in µs",
		Header: []string{"Buffer Size", "2MB", "8MB", "32MB", "128MB", "paper"},
	}
	for _, c := range []*core.CostCurve{costs.Malloc, costs.Free, costs.Discard, costs.DiscardLazy} {
		row := []string{c.Name()}
		for _, s := range sizes {
			row = append(row, fmt.Sprintf("%.1f", c.Eval(s).Microseconds()))
		}
		if p, ok := paper[c.Name()]; ok {
			row = append(row, fmt.Sprintf("%.0f/%.0f/%.0f/%.0f", p[0], p[1], p[2], p[3]))
		} else {
			row = append(row, "-")
		}
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"curves are calibrated on the paper's measurements; UvmDiscardLazy shown for contrast")
	return t, nil
}

// runFigure4 reproduces Figure 4: cudaMemPrefetchAsync throughput versus
// transfer size on PCIe-3 and PCIe-4, measured end to end through the
// driver (allocation, host population, one prefetch).
func runFigure4(opts Options) (*Table, error) {
	sizes := []units.Size{
		4 * units.KiB, 64 * units.KiB, 256 * units.KiB, units.MiB,
		2 * units.MiB, 8 * units.MiB, 32 * units.MiB, 128 * units.MiB, 512 * units.MiB,
	}
	if opts.Quick {
		sizes = sizes[:6]
	}
	t := &Table{
		ID:     "F4",
		Title:  "cudaMemPrefetchAsync throughput vs transfer size (GB/s)",
		Header: []string{"Size", "PCIe-3", "PCIe-4", "PCIe-3 peak%", "PCIe-4 peak%"},
	}
	gens := [2]pcie.Generation{pcie.Gen3, pcie.Gen4}
	// Cell i prefetches sizes[i/2] over gens[i%2]; tps and fracs keep its
	// throughput in GB/s and as a share of the link's peak.
	tps := make([][2]float64, len(sizes))
	fracs := make([][2]float64, len(sizes))
	err := runCells(opts, workloads.Platform{GPU: gpudev.RTX3080Ti()}, 2*len(sizes), func(p workloads.Platform, i int) error {
		size, g := sizes[i/2], i%2
		p.Gen = gens[g]
		ctx, err := p.NewContext(0)
		if err != nil {
			return err
		}
		buf, err := ctx.MallocManaged("f4", size)
		if err != nil {
			return err
		}
		if err := buf.HostWrite(0, buf.Size()); err != nil {
			return err
		}
		s := ctx.Stream("s")
		// Measure from issue time: the host population above already
		// advanced the clock.
		before := ctx.Clock().Now()
		if err := s.PrefetchAll(buf, cuda.ToGPU); err != nil {
			return err
		}
		dur := s.Tail() - before
		tp := float64(size) / dur.Seconds()
		tps[i/2][g] = tp / 1e9
		fracs[i/2][g] = 100 * tp / ctx.Driver().Link().PeakBandwidth()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for k, size := range sizes {
		t.AddRow(units.Format(size),
			fmt.Sprintf("%.2f", tps[k][0]), fmt.Sprintf("%.2f", tps[k][1]),
			fmt.Sprintf("%.0f%%", fracs[k][0]), fmt.Sprintf("%.0f%%", fracs[k][1]))
	}
	t.Notes = append(t.Notes,
		"shape target: latency-bound at 4 KiB, saturating near 12.3 / 24.7 GB/s beyond a few MiB")
	return t, nil
}
