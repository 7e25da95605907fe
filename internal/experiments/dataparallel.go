package experiments

import (
	"fmt"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "X6", Name: "data-parallel", Run: runDataParallel})
}

// runDataParallel measures synchronous data-parallel ResNet-53 training
// across 1, 2, and 4 GPUs at a fixed global batch that oversubscribes a
// single GPU. Sharding shrinks each replica's footprint: the single-GPU
// RMT problem (and discard's benefit) fades as replicas start fitting —
// while the all-reduce keeps the peer fabric busy. Discard and scale-out
// are complementary ways to spend for the same traffic problem; discard is
// free, GPUs are not.
func runDataParallel(o Options) (*Table, error) {
	model := dnn.ResNet53()
	gpu := gpudev.RTX3080Ti()
	globalBatch := 120
	if o.Quick {
		model = quickModel()
		gpu = gpudev.Generic(512 * units.MiB)
		globalBatch = 56
	}
	t := &Table{
		ID:    "X6",
		Title: fmt.Sprintf("Extension: data-parallel %s training, global batch %d", model.Name, globalBatch),
		Header: []string{"GPUs", "System", "Shard footprint", "PCIe GB",
			"Peer GB", "Throughput img/s"},
	}
	type cell struct {
		gpus int
		sys  workloads.System
	}
	var cells []cell
	for _, gpus := range []int{1, 2, 4} {
		if globalBatch%gpus != 0 {
			continue
		}
		for _, sys := range []workloads.System{workloads.UVMOpt, workloads.UvmDiscard} {
			cells = append(cells, cell{gpus, sys})
		}
	}
	t.Rows = make([][]string, len(cells))
	err := runCells(o, workloads.Platform{GPU: gpu, Gen: pcie.Gen4}, len(cells), func(p workloads.Platform, i int) error {
		c := cells[i]
		p.GPUs = c.gpus
		r, err := dnn.TrainDataParallel(p, c.sys, dnn.DataParallelConfig{Model: model, GlobalBatch: globalBatch})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{fmt.Sprintf("%d", c.gpus), c.sys.String(),
			units.Format(r.Footprint), fmtGB(r.TrafficBytes),
			fmtGB(r.PeerBytes), fmt.Sprintf("%.1f", r.Throughput)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"sharding shrinks each replica's footprint: single-GPU RMTs (and discard's benefit) fade as replicas fit",
		"the all-reduce volume is batch-independent: 2(n-1)/n of the gradients per replica per step")
	return t, nil
}
