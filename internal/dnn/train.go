package dnn

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// TrainConfig describes one training measurement.
type TrainConfig struct {
	// Model is the network to train.
	Model *ModelSpec
	// Batch is the mini-batch size; memory scales linearly with it.
	Batch int
	// Steps is how many mini-batches to run. The first step populates
	// memory and is excluded from the throughput measurement, mirroring
	// the paper's warm-up discipline (§7.5).
	Steps int
	// Recompute enables activation recomputation (gradient
	// checkpointing): backward stashes are not stored; each layer's
	// backward re-runs its forward into a shared scratch buffer. This
	// trades ~1.6x compute for a much smaller footprint — the §8
	// alternative that "does not ultimately avoid RMTs" once even the
	// reduced footprint oversubscribes.
	Recompute bool
}

// DefaultSteps is the mini-batch count used when TrainConfig.Steps is zero.
const DefaultSteps = 5

// TrainResult couples the generic workload result with throughput.
type TrainResult struct {
	workloads.Result
	// Throughput is training speed in samples (images) per second over
	// the measured (post-warm-up) steps.
	Throughput float64
	// Footprint is the CUDA allocation footprint of the run.
	Footprint units.Size
}

// CheckConfig refuses a model and batch before workloads.Run sees them: the
// runner sizes the context from the footprint before any Setup runs. The
// error names the model and the batch, never the model pointer, so a bad
// config prints the same message on every run. what prefixes the error.
func CheckConfig(what string, m *ModelSpec, batch int) error {
	if m == nil || batch <= 0 {
		name := "none"
		if m != nil {
			name = m.Name
		}
		return fmt.Errorf("%s: model %s, batch %d", what, name, batch)
	}
	return m.Validate()
}

// Measure runs s through workloads.Run and measures it the way the paper
// measures deep learning (§7.5): the host syncs before step 1, so the first
// step, which populates memory, is left out of Throughput (samples per
// step over the later steps' time), while Runtime counts from time zero
// with setup included.
func Measure(p workloads.Platform, sys workloads.System, s workloads.Stepper, samples int) (TrainResult, error) {
	m := &measured{Stepper: s}
	res, err := workloads.Run(p, sys, m, nil)
	if err != nil {
		return TrainResult{}, err
	}
	res.Runtime = m.ctx.Elapsed()
	tr := TrainResult{Result: res, Footprint: s.Footprint()}
	elapsed := m.ctx.Elapsed() - m.from
	if n := s.Steps() - 1; elapsed > 0 && n > 0 {
		tr.Throughput = float64(samples*n) / elapsed.Seconds()
	}
	return tr, nil
}

// measured adds the warm-up sync to a stepper.
type measured struct {
	workloads.Stepper
	ctx  *cuda.Context
	from sim.Time
}

func (m *measured) Setup(ctx *cuda.Context, p workloads.Platform, sys workloads.System) error {
	m.ctx = ctx
	return m.Stepper.Setup(ctx, p, sys)
}

func (m *measured) Step(i int) error {
	if i == 1 {
		m.ctx.DeviceSynchronize()
		m.from = m.ctx.Elapsed()
	}
	return m.Stepper.Step(i)
}

// Train runs the configured training under a system and platform.
//
// The per-step program follows Listing 6 (with the discard lines dropped
// for UVM-opt, and explicit buffers with memcpy for No-UVM per Listing 4):
// generate and prefetch the batch, forward through every layer writing its
// activation buffer (each layer's cuDNN workspace dies right after the
// layer), then backward from the last layer — each backward step consumes
// the downstream activation (dead afterwards) and produces gradients that
// the weight update consumes (dead afterwards).
//
// All DL discards are paired with the prefetch that repurposes the buffer
// on its next use, so UvmDiscardLazy replaces every one of them (§7.5).
func Train(p workloads.Platform, sys workloads.System, cfg TrainConfig) (TrainResult, error) {
	if err := CheckConfig("dnn: invalid config", cfg.Model, cfg.Batch); err != nil {
		return TrainResult{}, err
	}
	if cfg.Steps <= 0 {
		cfg.Steps = DefaultSteps
	}
	switch sys {
	case workloads.PyTorchLMS:
		return TrainResult{}, fmt.Errorf("dnn: PyTorch-LMS training lives in internal/lms")
	case workloads.NoUVM:
		return Measure(p, sys, &explicitTrainer{cfg: cfg}, cfg.Batch)
	}
	return Measure(p, sys, &trainer{cfg: cfg}, cfg.Batch)
}

// footprint is the CUDA allocation footprint of a training run.
func (c TrainConfig) footprint() units.Size {
	if c.Recompute {
		return c.Model.RecomputeFootprintBytes(c.Batch)
	}
	return c.Model.FootprintBytes(c.Batch)
}

// trainer is one training run under a UVM system: Listing 6 (UvmDiscard,
// UvmDiscardLazy) and its discard-free variant (UVM-opt). Step i trains
// mini-batch i.
type trainer struct {
	cfg TrainConfig

	streams
	sys                   workloads.System
	data, labels, grad    *cuda.Buffer
	outputs, stashes, wss []*cuda.Buffer
	fwd, bwd, upd, refwd  []cuda.Kernel
}

func (t *trainer) Name() string          { return "dnn" }
func (t *trainer) Footprint() units.Size { return t.cfg.footprint() }
func (t *trainer) Steps() int            { return t.cfg.Steps }

// Setup allocates the network's buffers, builds the step-invariant kernel
// specs and initializes the weights on the GPU.
func (t *trainer) Setup(ctx *cuda.Context, _ workloads.Platform, sys workloads.System) (err error) {
	cfg, m := t.cfg, t.cfg.Model
	batch := units.Size(cfg.Batch)
	nm := m.names()
	t.sys = sys

	if t.data, err = ctx.MallocManaged("data", batch*m.SampleBytes); err != nil {
		return err
	}
	if t.labels, err = ctx.MallocManaged("labels", batch*m.LabelBytes); err != nil {
		return err
	}
	if t.grad, err = ctx.MallocManaged("gradients", batch*m.MaxOutPerSample()); err != nil {
		return err
	}
	n := len(m.Layers)
	t.outputs, t.stashes, t.wss = make([]*cuda.Buffer, n), make([]*cuda.Buffer, n), make([]*cuda.Buffer, n)
	weights := make([]*cuda.Buffer, n)
	var recomputeBuf *cuda.Buffer
	if cfg.Recompute {
		// One shared scratch holds the recomputed intermediates of the
		// layer currently running backward.
		size := max(batch*m.MaxStashPerSample(cfg.Batch), units.PageSize)
		if recomputeBuf, err = ctx.MallocManaged("recompute", size); err != nil {
			return err
		}
	}
	for i, l := range m.Layers {
		if t.outputs[i], err = ctx.MallocManaged(nm[i].Out, batch*l.OutPerSample); err != nil {
			return err
		}
		if cfg.Recompute {
			t.stashes[i] = recomputeBuf
		} else {
			// Tensors the forward pass saves for this layer's backward
			// pass (the library's algorithm choice may inflate them,
			// Figure 5).
			stash := max(batch*m.StashBytes(l, cfg.Batch), units.PageSize)
			if t.stashes[i], err = ctx.MallocManaged(nm[i].Stash, stash); err != nil {
				return err
			}
		}
		// Weights + weight gradients + optimizer state.
		if weights[i], err = ctx.MallocManaged(nm[i].W, 3*l.WeightBytes); err != nil {
			return err
		}
		// cuDNN scratch: dead right after each kernel that uses it.
		if t.wss[i], err = ctx.MallocManaged(nm[i].Ws, max(l.WorkspaceFixed, units.PageSize)); err != nil {
			return err
		}
	}

	t.streams = streams{ctx: ctx, copy: ctx.Stream("copy"), compute: ctx.Stream("compute")}

	// The per-step kernel specs are step-invariant — same buffers, names,
	// and compute times every mini-batch — so they are built once here
	// instead of being reassembled inside the training loop (the loop runs
	// steps × layers launches and dominated the allocation profile).
	t.fwd, t.bwd, t.upd, t.refwd = make([]cuda.Kernel, n), make([]cuda.Kernel, n), make([]cuda.Kernel, n), make([]cuda.Kernel, n)
	for i, l := range m.Layers {
		in := t.data
		if i > 0 {
			in = t.outputs[i-1]
		}
		accesses := []cuda.Access{
			{Buf: in, Mode: core.Read},
			{Buf: weights[i], Mode: core.Read},
			{Buf: t.wss[i], Mode: core.ReadWrite},
			{Buf: t.outputs[i], Mode: core.Write},
		}
		if !cfg.Recompute {
			accesses = append(accesses, cuda.Access{Buf: t.stashes[i], Mode: core.Write})
		}
		t.fwd[i] = cuda.Kernel{Name: nm[i].Fwd, Compute: LayerTime(ctx, m, l, cfg.Batch, 1), Accesses: accesses}
		down := t.labels
		if i < n-1 {
			down = t.outputs[i+1]
		}
		t.bwd[i] = cuda.Kernel{
			Name:    nm[i].Bwd,
			Compute: LayerTime(ctx, m, l, cfg.Batch, 2),
			Accesses: []cuda.Access{
				{Buf: down, Mode: core.Read},
				{Buf: t.outputs[i], Mode: core.Read},
				{Buf: t.stashes[i], Mode: core.Read},
				{Buf: weights[i], Mode: core.Read},
				{Buf: t.wss[i], Mode: core.ReadWrite},
				{Buf: t.grad, Mode: core.Write},
			},
		}
		t.upd[i] = cuda.Kernel{
			Name:    nm[i].Upd,
			Compute: ctx.ComputeForBytes(float64(3 * l.WeightBytes)),
			Accesses: []cuda.Access{
				{Buf: t.grad, Mode: core.Read},
				{Buf: weights[i], Mode: core.ReadWrite},
			},
		}
		if cfg.Recompute {
			t.refwd[i] = cuda.Kernel{
				Name:    nm[i].Refwd,
				Compute: LayerTime(ctx, m, l, cfg.Batch, 1),
				Accesses: []cuda.Access{
					{Buf: in, Mode: core.Read},
					{Buf: weights[i], Mode: core.Read},
					{Buf: t.stashes[i], Mode: core.Write},
				},
			}
		}
	}

	// Initialize weights on the GPU (first touch maps zeroed chunks; a
	// short init kernel writes them).
	for i, l := range m.Layers {
		err := t.compute.Launch(cuda.Kernel{
			Name:     nm[i].Init,
			Compute:  ctx.ComputeForBytes(float64(3 * l.WeightBytes)),
			Accesses: []cuda.Access{{Buf: weights[i], Mode: core.Write}},
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (t *trainer) discard(b *cuda.Buffer) error {
	return workloads.Discard(t.sys, t.compute, b)
}

// streams is a copy stream feeding a compute stream on one GPU: the overlap
// the "-opt" baseline uses.
type streams struct {
	ctx           *cuda.Context
	gpu           int
	copy, compute *cuda.Stream
}

// prefetch pulls b onto the GPU on the copy stream and orders the compute
// stream after it.
func (s streams) prefetch(b *cuda.Buffer) error {
	if err := s.copy.PrefetchAllTo(b, s.gpu); err != nil {
		return err
	}
	ev := s.ctx.NewEvent()
	s.copy.RecordEvent(ev)
	s.compute.WaitEvent(ev)
	return nil
}

// orderCopyAfterCompute orders the copy stream behind the compute stream:
// discards apply at compute-stream order, and the repurposing prefetch on
// the copy stream must not be issued before the discard is.
func (s streams) orderCopyAfterCompute() {
	ev := s.ctx.NewEvent()
	s.compute.RecordEvent(ev)
	s.copy.WaitEvent(ev)
}

// Step trains one mini-batch.
func (t *trainer) Step(int) error {
	recompute, n := t.cfg.Recompute, len(t.outputs)
	// Generate and stage the batch.
	if err := t.data.HostWrite(0, t.data.Size()); err != nil {
		return err
	}
	if err := t.labels.HostWrite(0, t.labels.Size()); err != nil {
		return err
	}
	if err := t.prefetch(t.data); err != nil {
		return err
	}
	if err := t.prefetch(t.labels); err != nil {
		return err
	}

	// Forward.
	for i := 0; i < n; i++ {
		if err := t.prefetch(t.outputs[i]); err != nil {
			return err
		}
		if !recompute {
			if err := t.prefetch(t.stashes[i]); err != nil {
				return err
			}
		}
		if err := t.prefetch(t.wss[i]); err != nil {
			return err
		}
		if err := t.compute.Launch(t.fwd[i]); err != nil {
			return err
		}
		// The cuDNN scratch dies with the layer (§7.5: "intermediate
		// buffers used by the CUDNN library can be discarded").
		if err := t.discard(t.wss[i]); err != nil {
			return err
		}
		t.orderCopyAfterCompute()
	}

	// Backward: layer i consumes outputs[i+1] (the loss/labels for the
	// last layer), outputs[i], weights; produces the shared gradient
	// buffer; the update consumes it (Listing 6).
	for i := n - 1; i >= 0; i-- {
		if err := t.prefetch(t.grad); err != nil {
			return err
		}
		// Bring the activations and stash saved by the forward pass back
		// in ahead of the kernel (Listing 6's backward prefetch).
		if err := t.prefetch(t.outputs[i]); err != nil {
			return err
		}
		if err := t.prefetch(t.stashes[i]); err != nil {
			return err
		}
		if recompute {
			// Re-run this layer's forward to regenerate the intermediates
			// the backward needs — the recomputation cost gradient
			// checkpointing pays.
			if err := t.compute.Launch(t.refwd[i]); err != nil {
				return err
			}
		}
		if err := t.prefetch(t.wss[i]); err != nil {
			return err
		}
		if err := t.compute.Launch(t.bwd[i]); err != nil {
			return err
		}
		// outputs[i+1] now holds useless data (Listing 6), and this
		// layer's stash has served its purpose.
		if i < n-1 {
			if err := t.discard(t.outputs[i+1]); err != nil {
				return err
			}
		}
		if err := t.discard(t.stashes[i]); err != nil {
			return err
		}
		if err := t.discard(t.wss[i]); err != nil {
			return err
		}
		if err := t.compute.Launch(t.upd[i]); err != nil {
			return err
		}
		// gradients now hold useless data (Listing 6).
		if err := t.discard(t.grad); err != nil {
			return err
		}
		t.orderCopyAfterCompute()
	}
	return nil
}

// explicitTrainer is one No-UVM training run (Listing 4): explicit device
// buffers sized for the whole model (Setup fails when the footprint exceeds
// GPU memory) and explicit input memcpys. Kernels never fault, and there is
// no per-layer prefetch bookkeeping — which is why No-UVM edges out UVM-opt
// when everything fits (Figures 6, 7).
type explicitTrainer struct {
	cfg TrainConfig

	stream     *cuda.Stream
	inputBytes units.Size
	fwd, bwd   []cuda.Kernel
}

func (t *explicitTrainer) Name() string          { return "dnn" }
func (t *explicitTrainer) Footprint() units.Size { return t.cfg.footprint() }
func (t *explicitTrainer) Steps() int            { return t.cfg.Steps }

// Setup allocates the device memory and builds the step-invariant kernels.
func (t *explicitTrainer) Setup(ctx *cuda.Context, _ workloads.Platform, _ workloads.System) error {
	m := t.cfg.Model
	if _, err := ctx.Malloc(t.Footprint()); err != nil {
		return fmt.Errorf("dnn: No-UVM cannot train %s at batch %d: %w", m.Name, t.cfg.Batch, err)
	}
	t.stream = ctx.Stream("main")
	t.inputBytes = units.Size(t.cfg.Batch) * (m.SampleBytes + m.LabelBytes)
	nm := m.names()
	t.fwd, t.bwd = make([]cuda.Kernel, len(m.Layers)), make([]cuda.Kernel, len(m.Layers))
	for i, l := range m.Layers {
		t.fwd[i] = cuda.Kernel{Name: nm[i].Fwd, Compute: LayerTime(ctx, m, l, t.cfg.Batch, 1)}
		t.bwd[i] = cuda.Kernel{
			Name:    nm[i].Bwd,
			Compute: LayerTime(ctx, m, l, t.cfg.Batch, 2) + ctx.ComputeForBytes(float64(3*l.WeightBytes)),
		}
	}
	return nil
}

// Step copies the batch in, then runs the forward and backward kernels.
func (t *explicitTrainer) Step(int) error {
	t.stream.MemcpyHostToDevice(t.inputBytes)
	for i := range t.fwd {
		if err := t.stream.Launch(t.fwd[i]); err != nil {
			return err
		}
	}
	for i := len(t.bwd) - 1; i >= 0; i-- {
		if err := t.stream.Launch(t.bwd[i]); err != nil {
			return err
		}
	}
	return nil
}

// LayerTime converts a layer's FLOP count at a batch size into kernel time
// on the context's GPU, scaled by the model's achieved efficiency. dir is 1
// for forward, 2 for backward (which costs roughly twice the forward).
func LayerTime(ctx *cuda.Context, m *ModelSpec, l LayerSpec, batch int, dir float64) sim.Time {
	flops := l.FlopsPerSample * float64(batch) * dir
	eff := m.Efficiency
	tflops := ctx.Driver().Device().Profile().ComputeTFLOPS * eff
	return sim.Time(flops / (tflops * 1e12) * float64(sim.Second))
}
