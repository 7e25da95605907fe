// Package lms implements the PyTorch-LMS (large-model-support) baseline of
// Table 1: manual per-layer swapping with a caching allocator — the
// Listing 5 approach. Instead of a unified address space, every layer's
// device buffers are staged in before use and staged out after, through
// explicit synchronous copies interleaved with the layer kernels. The
// caching allocator removes the repeated cudaMalloc/cudaFree cost (the
// approaches cost 1,806 and 2,509 lines of code in PyTorch), but the
// transfers themselves remain: LMS always moves *useful* data both ways,
// so its PCIe traffic is enormous and nearly independent of whether the
// GPU is actually oversubscribed — the paper measures 112–150 GB where
// UVM+discard moves 2–58 GB.
package lms

import (
	"fmt"

	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config mirrors dnn.TrainConfig.
type Config struct {
	Model *dnn.ModelSpec
	Batch int
	Steps int
}

// Train runs the LMS-style training loop and reports throughput/traffic.
//
// Per step (Listing 5): stage the batch in; for each layer forward — stage
// the weights in, compute, stage the activations out; for each layer
// backward — stage the activations and weights back in, compute, stage the
// updated weights out. The caching allocator keeps a working set of device
// buffers so no allocation calls appear in the steady state; transfers are
// synchronous with the compute stream, which is why LMS cannot hide them.
func Train(p workloads.Platform, cfg Config) (dnn.TrainResult, error) {
	if err := dnn.CheckConfig("lms: invalid config", cfg.Model, cfg.Batch); err != nil {
		return dnn.TrainResult{}, err
	}
	if cfg.Steps <= 0 {
		cfg.Steps = dnn.DefaultSteps
	}
	return dnn.Measure(p, workloads.PyTorchLMS, &trainer{cfg: cfg}, cfg.Batch)
}

// trainer is one LMS training run; step i trains mini-batch i.
type trainer struct {
	cfg Config

	stream   *cuda.Stream
	fwd, bwd []cuda.Kernel
}

func (t *trainer) Name() string          { return "lms" }
func (t *trainer) Footprint() units.Size { return t.cfg.Model.FootprintBytes(t.cfg.Batch) }
func (t *trainer) Steps() int            { return t.cfg.Steps }

// Setup reserves the caching allocator's device memory and builds the
// step-invariant kernels.
func (t *trainer) Setup(ctx *cuda.Context, _ workloads.Platform, _ workloads.System) error {
	m := t.cfg.Model
	// The caching allocator holds the largest consecutive-layer working
	// set on the device. If even that does not fit, LMS cannot run.
	var peak units.Size
	batch := units.Size(t.cfg.Batch)
	for i, l := range m.Layers {
		prev := batch * m.SampleBytes
		if i > 0 {
			prev = batch * m.Layers[i-1].OutPerSample
		}
		set := prev + batch*(l.OutPerSample+l.StashPerSample) +
			3*l.WeightBytes + l.WorkspaceFixed + batch*m.MaxOutPerSample()
		peak = max(peak, set)
	}
	if _, err := ctx.Malloc(units.AlignUp(peak, units.BlockSize)); err != nil {
		return fmt.Errorf("lms: working set %s does not fit: %w", units.Format(peak), err)
	}

	t.stream = ctx.Stream("main")
	t.fwd, t.bwd = make([]cuda.Kernel, len(m.Layers)), make([]cuda.Kernel, len(m.Layers))
	for i, l := range m.Layers {
		t.fwd[i] = cuda.Kernel{Name: "fwd-" + l.Name, Compute: dnn.LayerTime(ctx, m, l, t.cfg.Batch, 1)}
		t.bwd[i] = cuda.Kernel{
			Name:    "bwd-" + l.Name,
			Compute: dnn.LayerTime(ctx, m, l, t.cfg.Batch, 2) + ctx.ComputeForBytes(float64(3*l.WeightBytes)),
		}
	}
	return nil
}

// Step trains one mini-batch.
func (t *trainer) Step(int) error {
	m, batch := t.cfg.Model, units.Size(t.cfg.Batch)
	// Stage the batch in.
	t.stream.MemcpyHostToDevice(batch * (m.SampleBytes + m.LabelBytes))

	// Forward: weights in, compute, activations + stash out (they are
	// needed again in backward but do not fit on the device).
	for i, l := range m.Layers {
		t.stream.MemcpyHostToDevice(l.WeightBytes)
		if err := t.stream.Launch(t.fwd[i]); err != nil {
			return err
		}
		t.stream.MemcpyDeviceToHost(batch * (l.OutPerSample + l.StashPerSample))
	}

	// Backward: activations, stash and weights back in; compute; updated
	// weights out.
	for i := len(m.Layers) - 1; i >= 0; i-- {
		l := m.Layers[i]
		t.stream.MemcpyHostToDevice(batch * (l.OutPerSample + l.StashPerSample))
		t.stream.MemcpyHostToDevice(l.WeightBytes)
		if err := t.stream.Launch(t.bwd[i]); err != nil {
			return err
		}
		t.stream.MemcpyDeviceToHost(l.WeightBytes)
	}
	return nil
}
