package experiments

import (
	"fmt"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func init() {
	register(Experiment{ID: "X5", Name: "recompute-vs-discard", Run: runRecomputeVsDiscard})
}

// runRecomputeVsDiscard compares activation recomputation (gradient
// checkpointing) with the discard directive on ResNet-53 training — the
// alternative the paper's related work cites: "Other approach chooses to
// recompute intermediate results to save memory consumption, but it does
// not ultimately avoid RMTs" (§8).
//
// At a moderately oversubscribing batch, recomputation shrinks the
// footprint enough to fit, so it trades ~1.5x compute for zero transfers
// and wins. At a very large batch even the recompute footprint
// oversubscribes, its RMTs return, and composing it with discard recovers
// the loss — the two techniques are complementary, exactly as §8 argues.
func runRecomputeVsDiscard(o Options) (*Table, error) {
	model := dnn.ResNet53()
	batches := []int{150, 320}
	p := workloads.DefaultPlatform()
	if o.Quick {
		model = quickModel()
		batches = []int{48, 120}
		p = workloads.Platform{GPU: gpudev.Generic(512 * units.MiB)}
	}
	t := &Table{
		ID:    "X5",
		Title: fmt.Sprintf("Extension (§8): recomputation vs discard, %s training", model.Name),
		Header: []string{"Batch", "Strategy", "Footprint", "Traffic GB",
			"Throughput img/s"},
	}
	strategies := []struct {
		name      string
		sys       workloads.System
		recompute bool
	}{
		{"UVM-opt", workloads.UVMOpt, false},
		{"UvmDiscard", workloads.UvmDiscard, false},
		{"recompute", workloads.UVMOpt, true},
		{"recompute+discard", workloads.UvmDiscard, true},
	}
	ns := len(strategies)
	t.Rows = make([][]string, len(batches)*ns)
	err := runCells(o, p, len(t.Rows), func(p workloads.Platform, i int) error {
		batch, spec := batches[i/ns], strategies[i%ns]
		r, err := dnn.Train(p, spec.sys, dnn.TrainConfig{
			Model: model, Batch: batch, Recompute: spec.recompute,
		})
		if err != nil {
			return err
		}
		t.Rows[i] = []string{fmt.Sprintf("%d", batch), spec.name,
			units.Format(r.Footprint), fmtGB(r.TrafficBytes),
			fmt.Sprintf("%.1f", r.Throughput)}
		return nil
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		"recomputation pays ~1.5x compute to drop the stored stashes; once even that footprint oversubscribes, its RMTs return",
		"discard composes with it — the §8 observation that recomputation 'does not ultimately avoid RMTs'")
	return t, nil
}
