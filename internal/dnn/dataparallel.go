package dnn

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// DataParallelConfig describes multi-GPU data-parallel training: the batch
// splits across one replica per GPU of the platform (Platform.GPUs), each
// GPU holds a full copy of the weights and its shard's activations, and
// gradients are exchanged over the peer fabric after every step.
type DataParallelConfig struct {
	// Model to train.
	Model *ModelSpec
	// GlobalBatch is the total batch; each GPU trains GlobalBatch/GPUs.
	GlobalBatch int
	// Steps as in TrainConfig.
	Steps int
}

// TrainDataParallel runs synchronous data-parallel training on p's GPUs.
// Each replica executes the Listing 6 step over its shard on its own GPU
// and stream (replicas overlap in time); the step ends with a gradient
// exchange over the peer fabric and a local weight update. Oversubscription
// pressure is per-GPU: sharding the batch shrinks each replica's footprint,
// which — like recomputation — reduces the RMTs discard would otherwise
// eliminate.
func TrainDataParallel(p workloads.Platform, sys workloads.System, cfg DataParallelConfig) (TrainResult, error) {
	if err := CheckConfig("dnn: invalid data-parallel config", cfg.Model, cfg.GlobalBatch); err != nil {
		return TrainResult{}, err
	}
	gpus := max(p.GPUs, 1)
	if cfg.GlobalBatch%gpus != 0 {
		return TrainResult{}, fmt.Errorf("dnn: global batch %d not divisible by %d GPUs", cfg.GlobalBatch, gpus)
	}
	if sys != workloads.UVMOpt && !sys.UsesDiscard() {
		return TrainResult{}, fmt.Errorf("dnn: data-parallel training supports the UVM systems, not %v", sys)
	}
	if cfg.Steps <= 0 {
		cfg.Steps = DefaultSteps
	}
	return Measure(p, sys, &dataParallel{cfg: cfg, shard: cfg.GlobalBatch / gpus}, cfg.GlobalBatch)
}

// dataParallel is one data-parallel training run; step i trains global
// mini-batch i on every replica, then all-reduces the gradients.
type dataParallel struct {
	cfg   DataParallelConfig
	shard int

	ctx       *cuda.Context
	sys       workloads.System
	reps      []*replica
	allreduce []cuda.Kernel // per replica; empty on one GPU
	gradBytes uint64        // peer bytes each all-reduce kernel moves
}

// replica is one GPU's streams, buffers and step-invariant kernels.
type replica struct {
	streams
	data, labels, grad *cuda.Buffer
	outputs, stashes   []*cuda.Buffer
	fwd, bwd           []cuda.Kernel
}

func (d *dataParallel) Name() string { return "dnn-data-parallel" }
func (d *dataParallel) Steps() int   { return d.cfg.Steps }

// Footprint is one replica's footprint: the reservation, like the
// pressure, is per GPU.
func (d *dataParallel) Footprint() units.Size { return d.cfg.Model.FootprintBytes(d.shard) }

// Setup allocates every replica's buffers, builds the kernels and
// initializes each replica's weights on its own GPU.
func (d *dataParallel) Setup(ctx *cuda.Context, p workloads.Platform, sys workloads.System) (err error) {
	m, gpus := d.cfg.Model, max(p.GPUs, 1)
	nm := m.names()
	batch := units.Size(d.shard)
	d.ctx, d.sys = ctx, sys
	weights := make([][]*cuda.Buffer, gpus)
	for g := 0; g < gpus; g++ {
		r := &replica{streams: streams{
			ctx: ctx, gpu: g,
			compute: ctx.Stream(fmt.Sprintf("gpu%d-compute", g)),
			copy:    ctx.Stream(fmt.Sprintf("gpu%d-copy", g)),
		}}
		alloc := func(name string, n units.Size) (*cuda.Buffer, error) {
			return ctx.MallocManaged(fmt.Sprintf("g%d-%s", g, name), n)
		}
		if r.data, err = alloc("data", batch*m.SampleBytes); err != nil {
			return err
		}
		if r.labels, err = alloc("labels", batch*m.LabelBytes); err != nil {
			return err
		}
		if r.grad, err = alloc("grad", batch*m.MaxOutPerSample()); err != nil {
			return err
		}
		for i, l := range m.Layers {
			ob, err := alloc(nm[i].Out, batch*l.OutPerSample)
			if err != nil {
				return err
			}
			sb, err := alloc(nm[i].Stash, max(batch*m.StashBytes(l, d.shard), units.PageSize))
			if err != nil {
				return err
			}
			wb, err := alloc(nm[i].W, 3*l.WeightBytes)
			if err != nil {
				return err
			}
			r.outputs = append(r.outputs, ob)
			r.stashes = append(r.stashes, sb)
			weights[g] = append(weights[g], wb)
		}
		for i, l := range m.Layers {
			in, down := r.data, r.labels
			if i > 0 {
				in = r.outputs[i-1]
			}
			if i < len(m.Layers)-1 {
				down = r.outputs[i+1]
			}
			r.fwd = append(r.fwd, cuda.Kernel{
				Name: nm[i].Fwd, GPU: g,
				Compute: LayerTime(ctx, m, l, d.shard, 1),
				Accesses: []cuda.Access{
					{Buf: in, Mode: core.Read},
					{Buf: weights[g][i], Mode: core.Read},
					{Buf: r.stashes[i], Mode: core.Write},
					{Buf: r.outputs[i], Mode: core.Write},
				},
			})
			r.bwd = append(r.bwd, cuda.Kernel{
				Name: nm[i].Bwd, GPU: g,
				Compute: LayerTime(ctx, m, l, d.shard, 2),
				Accesses: []cuda.Access{
					{Buf: down, Mode: core.Read},
					{Buf: r.outputs[i], Mode: core.Read},
					{Buf: r.stashes[i], Mode: core.Read},
					{Buf: weights[g][i], Mode: core.ReadWrite},
					{Buf: r.grad, Mode: core.Write},
				},
			})
		}
		d.reps = append(d.reps, r)
	}
	if gpus > 1 {
		// A ring all-reduce moves 2*(n-1)/n of the gradient volume per
		// replica over the peer fabric; the collective blocks each
		// replica's stream for that long.
		d.gradBytes = uint64(float64(m.TotalWeights()) * 2 * float64(gpus-1) / float64(gpus))
		for g := range d.reps {
			d.allreduce = append(d.allreduce, cuda.Kernel{
				Name: "allreduce", GPU: g,
				Compute: sim.TransferTime(d.gradBytes, ctx.Driver().PeerLink().PeakBandwidth()),
			})
		}
	}

	// Weight initialization per replica (on its own GPU).
	for g, r := range d.reps {
		for i, l := range m.Layers {
			if err := r.compute.Launch(cuda.Kernel{
				Name: nm[i].Init, GPU: g,
				Compute:  ctx.ComputeForBytes(float64(3 * l.WeightBytes)),
				Accesses: []cuda.Access{{Buf: weights[g][i], Mode: core.Write}},
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// Step trains one global mini-batch: every replica's shard, then the
// synchronous all-reduce.
func (d *dataParallel) Step(int) error {
	for _, r := range d.reps {
		if err := d.replicaStep(r); err != nil {
			return err
		}
	}
	if len(d.allreduce) == 0 {
		return nil
	}
	// The exchange is a barrier: no replica proceeds until the slowest one
	// arrives.
	barrier := d.ctx.NewEvent()
	slowest := d.reps[0].compute
	for _, r := range d.reps[1:] {
		if r.compute.Tail() > slowest.Tail() {
			slowest = r.compute
		}
	}
	slowest.RecordEvent(barrier)
	for _, r := range d.reps {
		r.compute.WaitEvent(barrier)
	}
	for g, r := range d.reps {
		if err := r.compute.Launch(d.allreduce[g]); err != nil {
			return err
		}
		d.ctx.Driver().AddPeer(d.gradBytes)
	}
	return nil
}

// replicaStep runs the Listing 6 step over r's shard.
func (d *dataParallel) replicaStep(r *replica) error {
	// Stage the shard.
	if err := r.data.HostWrite(0, r.data.Size()); err != nil {
		return err
	}
	if err := r.labels.HostWrite(0, r.labels.Size()); err != nil {
		return err
	}
	if err := r.prefetch(r.data); err != nil {
		return err
	}
	if err := r.prefetch(r.labels); err != nil {
		return err
	}
	// Forward.
	for i := range r.fwd {
		if err := r.prefetch(r.outputs[i]); err != nil {
			return err
		}
		if err := r.prefetch(r.stashes[i]); err != nil {
			return err
		}
		if err := r.compute.Launch(r.fwd[i]); err != nil {
			return err
		}
		r.orderCopyAfterCompute()
	}
	// Backward.
	for i := len(r.bwd) - 1; i >= 0; i-- {
		if err := r.prefetch(r.grad); err != nil {
			return err
		}
		if err := r.prefetch(r.outputs[i]); err != nil {
			return err
		}
		if err := r.prefetch(r.stashes[i]); err != nil {
			return err
		}
		if err := r.compute.Launch(r.bwd[i]); err != nil {
			return err
		}
		if i < len(r.bwd)-1 {
			if err := workloads.Discard(d.sys, r.compute, r.outputs[i+1]); err != nil {
				return err
			}
		}
		if err := workloads.Discard(d.sys, r.compute, r.stashes[i]); err != nil {
			return err
		}
		if err := workloads.Discard(d.sys, r.compute, r.grad); err != nil {
			return err
		}
		r.orderCopyAfterCompute()
	}
	return nil
}
