package experiments

import (
	"fmt"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/lms"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "F3", Name: "resnet-rmt", Run: runFigure3})
	register(Experiment{ID: "F5", Name: "dl-traffic", Run: runFigure5})
	register(Experiment{ID: "F6", Name: "dl-throughput-pcie4", Run: func(o Options) (*Table, error) {
		return dlThroughput("F6", pcie.Gen4, o)
	}})
	register(Experiment{ID: "F7", Name: "dl-throughput-pcie3", Run: func(o Options) (*Table, error) {
		return dlThroughput("F7", pcie.Gen3, o)
	}})
	register(Experiment{ID: "T1", Name: "vgg16-gtx1070", Run: runTable1})
}

// dlBatches holds each network's batch-size sweep: two fitting points, the
// largest fitting batch, and three oversubscribing points, bounded by the
// paper's reported ranges.
var dlBatches = map[string][]int{
	"VGG-16":     {40, 60, 75, 100, 125, 150},
	"Darknet-19": {100, 140, 171, 230, 300, 360},
	"ResNet-53":  {30, 45, 56, 85, 115, 150},
	"RNN":        {100, 140, 172, 215, 260, 300},
}

// dlRun is one row of the deep-learning sweeps: a network at one batch
// size.
type dlRun struct {
	model *dnn.ModelSpec
	batch int
}

// dlSweep returns the sweep's rows, every network at each of its batch
// sizes, and their platform: the paper's zoo, or a small synthetic network
// in quick mode.
func dlSweep(o Options) ([]dlRun, workloads.Platform) {
	if o.Quick {
		m := quickModel()
		return []dlRun{{m, 8}, {m, 24}, {m, 48}, {m, 72}},
			workloads.Platform{GPU: gpudev.Generic(512 * units.MiB), Gen: pcie.Gen4}
	}
	var rows []dlRun
	for _, m := range dnn.Zoo() {
		for _, b := range dlBatches[m.Name] {
			rows = append(rows, dlRun{m, b})
		}
	}
	return rows, workloads.DefaultPlatform()
}

func quickModel() *dnn.ModelSpec {
	m := &dnn.ModelSpec{
		Name:        "quick-net",
		SampleBytes: 256 * units.KiB,
		LabelBytes:  4 * units.KiB,
		Efficiency:  0.4,
		Layers: []dnn.LayerSpec{
			{Name: "l1", OutPerSample: 2 * units.MiB, WeightBytes: 4 * units.MiB, FlopsPerSample: 2e8},
			{Name: "l2", OutPerSample: 2 * units.MiB, WeightBytes: 8 * units.MiB, FlopsPerSample: 4e8},
			{Name: "l3", OutPerSample: units.MiB, WeightBytes: 8 * units.MiB, FlopsPerSample: 4e8},
			{Name: "l4", OutPerSample: units.MiB / 2, WeightBytes: 2 * units.MiB, FlopsPerSample: 1e8},
		},
	}
	if err := m.Calibrate(10, 260*units.MiB, 50, 900*units.MiB); err != nil {
		panic(err)
	}
	return m
}

// runFigure3 reproduces Figure 3: PCIe traffic of ResNet-53 training under
// plain UVM across batch sizes, split into the total and the genuinely
// required portion via the RMT trace analyzer. Beyond the GPU capacity,
// less than half of UVM's traffic is required — the paper's motivating
// observation.
func runFigure3(o Options) (*Table, error) {
	model := dnn.ResNet53()
	batches := []int{30, 45, 56, 85, 115, 150}
	p := workloads.DefaultPlatform()
	if o.Quick {
		model = quickModel()
		batches = []int{8, 24, 48, 72}
		p = workloads.Platform{GPU: gpudev.Generic(512 * units.MiB), Gen: pcie.Gen4}
	}
	p.TraceRMT = true
	t := &Table{
		ID:     "F3",
		Title:  fmt.Sprintf("PCIe traffic of %s under UVM: total vs required (GB)", model.Name),
		Header: []string{"Batch", "Footprint", "Total", "Required", "Redundant", "Redundant%"},
	}
	// A cell keeps its row's numbers, not its run's trace, so each trace
	// is garbage once its run returns.
	type row struct {
		footprint units.Size
		traffic   uint64
		a         trace.Analysis
	}
	rows := make([]row, len(batches))
	err := runCells(o, p, len(batches), func(p workloads.Platform, i int) error {
		r, err := dnn.Train(p, workloads.UVMOpt, dnn.TrainConfig{Model: model, Batch: batches[i]})
		if err != nil {
			return err
		}
		if r.Analysis == nil {
			return fmt.Errorf("F3: no RMT analysis recorded")
		}
		rows[i] = row{r.Footprint, r.TrafficBytes, *r.Analysis}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		t.AddRow(fmt.Sprintf("%d", batches[i]),
			units.Format(r.footprint),
			fmtGB(r.traffic),
			fmtGB(r.a.RequiredBytes),
			fmtGB(r.a.Redundant()),
			fmt.Sprintf("%.0f%%", 100*r.a.RedundantFraction()))
	}
	t.Notes = append(t.Notes,
		"paper: beyond GPU capacity, the required traffic is less than half of what UVM transfers")
	return t, nil
}

// runFigure5 reproduces Figure 5: PCIe traffic versus batch size for all
// four networks under UVM-opt, UvmDiscard, and UvmDiscardLazy. The paper's
// caption: "UvmDiscard and UvmDiscardLazy fully eliminate RMTs".
func runFigure5(o Options) (*Table, error) {
	rows, p := dlSweep(o)
	t := &Table{
		ID:     "F5",
		Title:  "PCIe traffic in deep learning (GB)",
		Header: []string{"Model", "Batch", "UVM-opt", "UvmDiscard", "UvmDiscardLazy", "saved%"},
	}
	ns := len(tableSystems)
	traffic := make([]uint64, len(rows)*ns)
	err := runCells(o, p, len(traffic), func(p workloads.Platform, i int) error {
		row := rows[i/ns]
		r, err := dnn.Train(p, tableSystems[i%ns], dnn.TrainConfig{Model: row.model, Batch: row.batch})
		traffic[i] = r.TrafficBytes
		return err
	})
	if err != nil {
		return nil, err
	}
	for n, row := range rows {
		cells := []string{row.model.Name, fmt.Sprintf("%d", row.batch)}
		for _, b := range traffic[n*ns : (n+1)*ns] {
			cells = append(cells, fmtGB(b))
		}
		// tableSystems: UVM-opt, UvmDiscard, UvmDiscardLazy.
		base, disc := traffic[n*ns], traffic[n*ns+1]
		saved := "-"
		if base > 0 {
			saved = fmt.Sprintf("%.0f%%", 100*(1-float64(disc)/float64(base)))
		}
		t.AddRow(append(cells, saved)...)
	}
	t.Notes = append(t.Notes,
		"paper headline: discard eliminates >60% of transfers on oversubscribing batches")
	return t, nil
}

// dlThroughput reproduces Figures 6 (PCIe-4) and 7 (PCIe-3): training
// throughput in img/s across batch sizes for No-UVM (where it fits),
// UVM-opt, and both discard flavors.
func dlThroughput(id string, gen pcie.Generation, o Options) (*Table, error) {
	rows, p := dlSweep(o)
	p.Gen = gen
	t := &Table{
		ID:     id,
		Title:  fmt.Sprintf("Training throughput (img/s) with %v", gen),
		Header: []string{"Model", "Batch", "No-UVM", "UVM-opt", "UvmDiscard", "UvmDiscardLazy"},
	}
	systems := []workloads.System{
		workloads.NoUVM, workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy,
	}
	ns := len(systems)
	cells := make([]string, len(rows)*ns)
	err := runCells(o, p, len(cells), func(p workloads.Platform, i int) error {
		row, sys := rows[i/ns], systems[i%ns]
		r, err := dnn.Train(p, sys, dnn.TrainConfig{Model: row.model, Batch: row.batch})
		switch {
		case err != nil && sys == workloads.NoUVM && runctl.AsInterrupt(err) == nil:
			cells[i] = "-" // does not fit: the Listing 4 failure
		case err != nil:
			return err
		default:
			cells[i] = fmt.Sprintf("%.1f", r.Throughput)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for n, row := range rows {
		t.AddRow(append([]string{row.model.Name, fmt.Sprintf("%d", row.batch)}, cells[n*ns:(n+1)*ns]...)...)
	}
	t.Notes = append(t.Notes,
		"\"-\" marks No-UVM failing because the footprint exceeds GPU memory",
		"shape targets: eager discard costs up to ~16% when fitting; lazy is neutral; both win once oversubscribed")
	return t, nil
}

// runTable1 reproduces Table 1: VGG-16 training on the GTX 1070 (PCIe-3)
// comparing PyTorch-LMS manual swapping, plain UVM, and UVM with discard
// across batch sizes 40–80. Cells are "throughput(img/s)/traffic(GB)".
func runTable1(o Options) (*Table, error) {
	model := dnn.VGG16()
	batches := []int{40, 50, 60, 70, 80}
	p := workloads.Platform{GPU: gpudev.GTX1070(), Gen: pcie.Gen3}
	steps := 10
	if o.Quick {
		model = quickModel()
		batches = []int{8, 24, 48}
		p = workloads.Platform{GPU: gpudev.Generic(512 * units.MiB), Gen: pcie.Gen3}
		steps = 4
	}
	t := &Table{
		ID:     "T1",
		Title:  fmt.Sprintf("Throughput(img/s)/PCIe traffic(GB) of training %s on %s", model.Name, p.GPU.Name),
		Header: append([]string{"System"}, batchHeaders(batches)...),
	}
	paper := map[string][]string{
		"PyTorch-LMS":     {"16/112", "17/118", "17/148", "19/113", "18/150"},
		"DarkNet-UVM":     {"29/2", "29/2", "25/45", "22/104", "20/152"},
		"DarkNet-Discard": {"29/2", "29/2", "28/10", "26/34", "24/58"},
	}
	rows := []struct {
		name string
		run  func(p workloads.Platform, batch int) (dnn.TrainResult, error)
	}{
		{"PyTorch-LMS", func(p workloads.Platform, b int) (dnn.TrainResult, error) {
			return lms.Train(p, lms.Config{Model: model, Batch: b, Steps: steps})
		}},
		{"DarkNet-UVM", func(p workloads.Platform, b int) (dnn.TrainResult, error) {
			return dnn.Train(p, workloads.UVMOpt, dnn.TrainConfig{Model: model, Batch: b, Steps: steps})
		}},
		{"DarkNet-Discard", func(p workloads.Platform, b int) (dnn.TrainResult, error) {
			return dnn.Train(p, workloads.UvmDiscard, dnn.TrainConfig{Model: model, Batch: b, Steps: steps})
		}},
	}
	nb := len(batches)
	cells := make([]string, len(rows)*nb)
	err := runCells(o, p, len(cells), func(p workloads.Platform, i int) error {
		spec, b := rows[i/nb], batches[i%nb]
		r, err := spec.run(p, b)
		if err != nil {
			return fmt.Errorf("T1 %s batch %d: %w", spec.name, b, err)
		}
		cells[i] = fmt.Sprintf("%.0f/%.0f", r.Throughput, r.TrafficGB())
		return nil
	})
	if err != nil {
		return nil, err
	}
	for n, spec := range rows {
		t.AddRow(append([]string{spec.name}, cells[n*nb:(n+1)*nb]...)...)
		if ref, ok := paper[spec.name]; ok && !o.Quick {
			t.AddRow(append([]string{"  (paper)"}, ref...)...)
		}
	}
	return t, nil
}

func batchHeaders(batches []int) []string {
	out := make([]string, len(batches))
	for i, b := range batches {
		out[i] = fmt.Sprintf("%d", b)
	}
	return out
}
