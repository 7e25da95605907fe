package dnn

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// InferConfig describes an inference-serving measurement: forward passes
// only, over a model whose *weights* dominate memory (the large-model
// serving regime). It exercises the interplay of the paper's discard
// directive with the cudaMemAdvise hints:
//
//   - Without hints, evicting a weight block under pressure transfers it
//     D2H even though it was never modified — NVIDIA GPUs lack per-PTE
//     dirty bits (§5), so the driver cannot know the copy is clean.
//   - SetReadMostly keeps a valid host copy, so weight evictions move
//     nothing; only the re-fetch H2D remains.
//   - Discard kills each activation buffer the moment the next layer has
//     consumed it.
//
// With Platform.GPUs > 1 the model's layers are partitioned across the GPUs
// (pipeline/model parallelism for serving): each stage holds its own
// weights, and activations hand off over the peer fabric.
type InferConfig struct {
	// Model to serve. Weights are loaded once and never modified.
	Model *ModelSpec
	// Batch is the request batch size.
	Batch int
	// Requests is how many batches to serve; the first warms the cache
	// and is excluded from throughput.
	Requests int
	// Discard enables activation discards.
	Discard bool
	// AdviseWeights applies SetReadMostly to all weights.
	AdviseWeights bool
}

// LargeModel returns a synthetic serving model in the large-language-model
// shape: weight-dominated layers with small activations. total is the
// summed parameter size; layers controls granularity.
func LargeModel(total units.Size, layers int) *ModelSpec {
	if layers <= 0 {
		layers = 24
	}
	per := total / units.Size(layers)
	m := &ModelSpec{
		Name:        fmt.Sprintf("served-%s", units.Format(total)),
		SampleBytes: 64 * units.KiB,
		LabelBytes:  4 * units.KiB,
		Efficiency:  0.5,
	}
	for i := 0; i < layers; i++ {
		m.Layers = append(m.Layers, LayerSpec{
			Name:         fmt.Sprintf("block%d", i),
			OutPerSample: units.MiB,
			WeightBytes:  per,
			// Each served token-batch streams the layer's weights once.
			FlopsPerSample: 2 * float64(per) / 4,
		})
	}
	return m
}

// Infer serves Requests forward passes and reports throughput and traffic.
func Infer(p workloads.Platform, cfg InferConfig) (TrainResult, error) {
	if err := CheckConfig("dnn: invalid inference config", cfg.Model, cfg.Batch); err != nil {
		return TrainResult{}, err
	}
	if cfg.Requests <= 0 {
		cfg.Requests = 4
	}
	if gpus := max(p.GPUs, 1); gpus > len(cfg.Model.Layers) {
		return TrainResult{}, fmt.Errorf("dnn: %d stages for %d layers", gpus, len(cfg.Model.Layers))
	}
	return Measure(p, workloads.UVMOpt, &server{cfg: cfg}, cfg.Batch)
}

// server is one inference-serving run; step i serves request i.
type server struct {
	cfg InferConfig

	stream            *cuda.Stream
	input, actA, actB *cuda.Buffer
	layers            []cuda.Kernel
}

func (s *server) Name() string { return "infer" }
func (s *server) Steps() int   { return s.cfg.Requests }

// Footprint is single-copy weights plus double-buffered activations and the
// input.
func (s *server) Footprint() units.Size {
	m := s.cfg.Model
	return m.TotalWeights() + units.Size(s.cfg.Batch)*(m.SampleBytes+2*m.MaxOutPerSample())
}

// Setup places the layers on the pipeline stages, allocates the weights and
// activations and loads the weights: the host materializes the checkpoint,
// optionally marks it read-mostly, and the first pass pulls it in.
func (s *server) Setup(ctx *cuda.Context, p workloads.Platform, _ workloads.System) (err error) {
	m, gpus := s.cfg.Model, max(p.GPUs, 1)
	batch := units.Size(s.cfg.Batch)
	// stageOf balances layers across stages by weight volume.
	stageOf := make([]int, len(m.Layers))
	if gpus > 1 {
		perStage := m.TotalWeights() / units.Size(gpus)
		var acc units.Size
		stage := 0
		for i, l := range m.Layers {
			stageOf[i] = stage
			acc += l.WeightBytes
			if acc >= perStage && stage < gpus-1 {
				acc, stage = 0, stage+1
			}
		}
	}

	nm := m.names()
	weights := make([]*cuda.Buffer, len(m.Layers))
	for i, l := range m.Layers {
		if weights[i], err = ctx.MallocManaged(nm[i].W, l.WeightBytes); err != nil {
			return err
		}
	}
	if s.input, err = ctx.MallocManaged("input", batch*m.SampleBytes); err != nil {
		return err
	}
	if s.actA, err = ctx.MallocManaged("act-a", batch*m.MaxOutPerSample()); err != nil {
		return err
	}
	if s.actB, err = ctx.MallocManaged("act-b", batch*m.MaxOutPerSample()); err != nil {
		return err
	}
	s.stream = ctx.Stream("serve")

	// Layer i reads the input (layer 0) or the other activation buffer and
	// writes act-b for even i, act-a for odd i, on every request.
	s.layers = make([]cuda.Kernel, len(m.Layers))
	src, dst := s.actA, s.actB
	for i, l := range m.Layers {
		in := s.input
		if i > 0 {
			in = src
		}
		s.layers[i] = cuda.Kernel{
			Name: "serve-" + l.Name, GPU: stageOf[i],
			Compute: LayerTime(ctx, m, l, s.cfg.Batch, 1),
			Accesses: []cuda.Access{
				{Buf: weights[i], Mode: core.Read},
				{Buf: in, Mode: core.Read},
				{Buf: dst, Mode: core.Write},
			},
		}
		src, dst = dst, src
	}

	for _, w := range weights {
		if err := w.HostWrite(0, w.Size()); err != nil {
			return err
		}
		if s.cfg.AdviseWeights {
			if err := s.stream.MemAdviseAll(w, core.AdviseSetReadMostly); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step serves one request batch.
func (s *server) Step(int) error {
	if err := s.input.HostWrite(0, s.input.Size()); err != nil {
		return err
	}
	if err := s.stream.PrefetchAll(s.input, cuda.ToGPU); err != nil {
		return err
	}
	src, dst := s.actA, s.actB
	for i := range s.layers {
		if s.cfg.Discard {
			// Repurposing a previously discarded activation buffer:
			// prefault it (§4.2).
			if err := s.stream.PrefetchAll(dst, cuda.ToGPU); err != nil {
				return err
			}
		}
		if err := s.stream.Launch(s.layers[i]); err != nil {
			return err
		}
		if s.cfg.Discard && i > 0 {
			// The consumed activation is dead.
			if err := s.stream.DiscardAll(src); err != nil {
				return err
			}
		}
		src, dst = dst, src
	}
	// The final activation is the response; it is consumed (read) by the
	// serving layer and then dead.
	if err := src.HostRead(0, src.Size()); err != nil {
		return err
	}
	if s.cfg.Discard {
		return s.stream.DiscardAll(src)
	}
	return nil
}
