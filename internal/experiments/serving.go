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
	register(Experiment{ID: "X2", Name: "inference-advice", Run: runInferenceAdvice})
}

// runInferenceAdvice measures large-model inference serving, where the
// model's weights exceed GPU memory. It is the natural companion to the
// paper's training results: the dominant RMT here is the driver swapping
// *unmodified weights* out D2H — NVIDIA GPUs have no per-PTE dirty bits
// (§5), so the driver cannot know the host copy is still valid. The
// cudaMemAdvise SetReadMostly hint (related to the madvise family of §8)
// keeps a valid host copy so weight evictions move nothing, and the
// discard directive kills the ping-ponging activations. The experiment
// shows the two mechanisms compose.
func runInferenceAdvice(o Options) (*Table, error) {
	gpu := gpudev.RTX3080Ti()
	model := dnn.LargeModel(18*units.GiB, 24) // ~1.6x GPU memory in weights
	batch := 64
	if o.Quick {
		gpu = gpudev.Generic(512 * units.MiB)
		model = dnn.LargeModel(768*units.MiB, 12)
		batch = 8
	}
	t := &Table{
		ID:    "X2",
		Title: fmt.Sprintf("Extension: inference serving of %s on %s", model.Name, gpu.Name),
		Header: []string{"Configuration", "Throughput", "Traffic GB",
			"H2D GB", "D2H GB", "vs baseline"},
	}
	var base workloads.Result
	for _, spec := range []struct {
		name            string
		discard, advise bool
		gpus            int
	}{
		{"plain UVM", false, false, 1},
		{"+ discard (activations)", true, false, 1},
		{"+ read-mostly (weights)", false, true, 1},
		{"+ both", true, true, 1},
		{"2-GPU pipeline (no hints)", false, false, 2},
	} {
		p := o.arm(workloads.Platform{GPU: gpu, Gen: pcie.Gen4, GPUs: spec.gpus})
		r, err := dnn.Infer(p, dnn.InferConfig{
			Model: model, Batch: batch, Requests: 4,
			Discard: spec.discard, AdviseWeights: spec.advise,
		})
		if err != nil {
			return nil, err
		}
		rel := "-"
		if spec.name == "plain UVM" {
			base = r.Result
		} else if base.Runtime > 0 {
			rel = fmt.Sprintf("%.2fx faster", float64(base.Runtime)/float64(r.Runtime))
		}
		t.AddRow(spec.name,
			fmt.Sprintf("%.0f req/s", r.Throughput),
			fmtGB(r.TrafficBytes), fmtGB(r.H2DBytes), fmtGB(r.D2HBytes), rel)
	}
	t.Notes = append(t.Notes,
		"weights exceed GPU memory: every serving pass refetches them H2D",
		"read-mostly removes the D2H weight evictions (no dirty bits on the GPU, §5); discard removes activation RMTs",
		"the 2-GPU pipeline sidesteps the problem entirely: each stage's weights fit, activations hand off peer-to-peer")
	return t, nil
}
