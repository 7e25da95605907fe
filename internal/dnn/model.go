// Package dnn models the paper's deep-learning training workloads (§7.5):
// layer-level network specifications (VGG-16, Darknet-19, ResNet-53, RNN)
// and a Darknet-style training loop expressed as UVM programs — the
// pseudo-code of Listings 4 and 6.
//
// A training step runs a forward pass that writes each layer's activation
// buffer (scratch cuDNN workspaces die immediately after each layer), and a
// backward pass that consumes activations to produce gradients and update
// weights — after which the consumed activation and the gradient buffer are
// dead. When the footprint exceeds GPU memory, UVM ping-pongs those dead
// intermediate buffers redundantly; the discard directives eliminate those
// transfers (Figures 3, 5, 6, 7).
package dnn

import (
	"fmt"
	"sync"

	"uvmdiscard/internal/units"
)

// LayerSpec describes one layer of a network.
type LayerSpec struct {
	// Name identifies the layer ("conv1_1", "fc6", …).
	Name string
	// OutPerSample is the activation output size per training sample.
	OutPerSample units.Size
	// WeightBytes is the parameter size (weights incl. biases).
	WeightBytes units.Size
	// StashPerSample is the per-sample memory the layer saves during the
	// forward pass for its own backward pass (pre-activations, im2col
	// copies, batch-norm statistics). It is live from forward until the
	// layer's backward completes — the calibrated bulk of training
	// memory, and the bulk of the *required* transfers under
	// oversubscription.
	StashPerSample units.Size
	// WorkspaceFixed is batch-independent cuDNN scratch; dead immediately
	// after each kernel that uses it (the paper's per-layer discard
	// target).
	WorkspaceFixed units.Size
	// FlopsPerSample is the forward FLOP count per sample; backward costs
	// twice that.
	FlopsPerSample float64
}

// ModelSpec is a full network plus training-process parameters.
type ModelSpec struct {
	// Name is the network name as the paper uses it.
	Name string
	// Layers in forward order.
	Layers []LayerSpec
	// SampleBytes is one input sample (e.g. a 224x224x3 fp32 image).
	SampleBytes units.Size
	// LabelBytes is one label.
	LabelBytes units.Size
	// Efficiency is the fraction of peak GPU FLOPS the training kernels
	// achieve (calibrated against Table 1's measured throughput).
	Efficiency float64
	// AlgoSwitch models the cuDNN behavior the paper observes under
	// Figure 5: "the amount of data transfers may drastically increase
	// because the CUDNN library switches to a different algorithm that
	// uses a different size of workspace buffer." Zero value disables it.
	AlgoSwitch AlgoSwitch

	// derived memoizes the per-layer name strings built from Layers, once;
	// see names().
	derivedOnce sync.Once
	derived     []layerNames
}

// layerNames holds the buffer and kernel name strings derived from one
// layer's name ("out-conv1_1", "fwd-conv1_1", …). A training run builds
// every one of them for every layer, and one ModelSpec typically serves a
// whole experiment table of runs, so the concatenations are memoized on the
// spec instead of being rebuilt per run.
type layerNames struct {
	Out, Stash, W, Ws          string
	Fwd, Bwd, Upd, Refwd, Init string
}

// names returns the memoized per-layer derived names, building them on
// first use. Layer names must not change afterwards. It is safe for
// concurrent use: the cells of one experiment train one spec from several
// goroutines at once.
func (m *ModelSpec) names() []layerNames {
	m.derivedOnce.Do(func() {
		d := make([]layerNames, len(m.Layers))
		for i, l := range m.Layers {
			d[i] = layerNames{
				Out:   "out-" + l.Name,
				Stash: "stash-" + l.Name,
				W:     "w-" + l.Name,
				Ws:    "ws-" + l.Name,
				Fwd:   "fwd-" + l.Name,
				Bwd:   "bwd-" + l.Name,
				Upd:   "upd-" + l.Name,
				Refwd: "refwd-" + l.Name,
				Init:  "init-" + l.Name,
			}
		}
		m.derived = d
	})
	return m.derived
}

// AlgoSwitch is a batch-size threshold at which the library's algorithm
// choice changes the per-sample stash footprint by a multiplicative factor.
type AlgoSwitch struct {
	// AtBatch is the threshold batch size; 0 disables the switch.
	AtBatch int
	// StashFactor multiplies every layer's per-sample stash at and beyond
	// the threshold (>1 = the faster algorithm needs more workspace).
	StashFactor float64
}

// Validate checks internal consistency.
func (m *ModelSpec) Validate() error {
	if len(m.Layers) == 0 {
		return fmt.Errorf("dnn: model %q has no layers", m.Name)
	}
	if m.SampleBytes == 0 {
		return fmt.Errorf("dnn: model %q has no input size", m.Name)
	}
	if m.Efficiency <= 0 || m.Efficiency > 1 {
		return fmt.Errorf("dnn: model %q efficiency %v out of range", m.Name, m.Efficiency)
	}
	for _, l := range m.Layers {
		if l.OutPerSample == 0 || l.FlopsPerSample <= 0 {
			return fmt.Errorf("dnn: model %q layer %q incomplete", m.Name, l.Name)
		}
	}
	return nil
}

// TotalWeights returns the summed parameter bytes.
func (m *ModelSpec) TotalWeights() units.Size {
	var t units.Size
	for _, l := range m.Layers {
		t += l.WeightBytes
	}
	return t
}

// MaxOutPerSample returns the largest per-sample activation — the size
// basis of the shared gradient buffer.
func (m *ModelSpec) MaxOutPerSample() units.Size {
	var mx units.Size
	for _, l := range m.Layers {
		if l.OutPerSample > mx {
			mx = l.OutPerSample
		}
	}
	return mx
}

// PerSampleBytes returns the batch-proportional memory per sample:
// activations, backward stashes, the gradient buffer share, and the input
// (below any algorithm-switch threshold).
func (m *ModelSpec) PerSampleBytes() units.Size {
	t := m.SampleBytes + m.LabelBytes + m.MaxOutPerSample()
	for _, l := range m.Layers {
		t += l.OutPerSample + l.StashPerSample
	}
	return t
}

// StashBytes returns a layer's per-sample stash at a given batch size,
// honoring the algorithm switch.
func (m *ModelSpec) StashBytes(l LayerSpec, batch int) units.Size {
	if m.AlgoSwitch.AtBatch > 0 && batch >= m.AlgoSwitch.AtBatch && m.AlgoSwitch.StashFactor > 0 {
		return units.Size(float64(l.StashPerSample) * m.AlgoSwitch.StashFactor)
	}
	return l.StashPerSample
}

// FixedBytes returns the batch-independent memory: parameters (with
// gradients and optimizer state, 3x) and fixed workspaces.
func (m *ModelSpec) FixedBytes() units.Size {
	t := 3 * m.TotalWeights()
	for _, l := range m.Layers {
		t += l.WorkspaceFixed
	}
	return t
}

// FootprintBytes returns the CUDA allocation footprint at a batch size —
// the quantity the paper reports ("VGG-16 allocated 12.0 GB ... at batch
// size 75") — including any algorithm-switch discontinuity.
func (m *ModelSpec) FootprintBytes(batch int) units.Size {
	t := m.FixedBytes() + units.Size(batch)*m.PerSampleBytes()
	if m.AlgoSwitch.AtBatch > 0 && batch >= m.AlgoSwitch.AtBatch && m.AlgoSwitch.StashFactor > 0 {
		for _, l := range m.Layers {
			t += units.Size(batch) * (m.StashBytes(l, batch) - l.StashPerSample)
		}
	}
	return t
}

// RecomputeFootprintBytes returns the footprint when training with
// activation recomputation (gradient checkpointing): the per-layer
// backward stashes are not stored — only one shared recompute buffer the
// size of the largest stash exists (§8's Karma-style alternative).
func (m *ModelSpec) RecomputeFootprintBytes(batch int) units.Size {
	t := m.FixedBytes() + units.Size(batch)*(m.SampleBytes+m.LabelBytes+m.MaxOutPerSample())
	var maxStash units.Size
	for _, l := range m.Layers {
		t += units.Size(batch) * l.OutPerSample
		if s := m.StashBytes(l, batch); s > maxStash {
			maxStash = s
		}
	}
	return t + units.Size(batch)*maxStash
}

// MaxStashPerSample returns the largest per-sample stash at a batch size.
func (m *ModelSpec) MaxStashPerSample(batch int) units.Size {
	var mx units.Size
	for _, l := range m.Layers {
		if s := m.StashBytes(l, batch); s > mx {
			mx = s
		}
	}
	return mx
}

// ForwardFlops returns total forward FLOPs per sample.
func (m *ModelSpec) ForwardFlops() float64 {
	var t float64
	for _, l := range m.Layers {
		t += l.FlopsPerSample
	}
	return t
}

// Calibrate distributes stash and workspace memory across layers so that
// the model's footprint matches two measured (batch, bytes) points from the
// paper. The architecture fixes weights and activations; the per-layer
// backward stashes (batch-proportional) and fixed cuDNN workspaces are the
// unknowns the calibration solves for. Calibration fails if the measured
// points imply less memory than the architecture itself requires.
func (m *ModelSpec) Calibrate(batch1 int, bytes1 units.Size, batch2 int, bytes2 units.Size) error {
	if batch2 <= batch1 {
		return fmt.Errorf("dnn: calibration points must have increasing batch sizes")
	}
	// Zero out previous calibration to compute architectural baselines.
	for i := range m.Layers {
		m.Layers[i].StashPerSample = 0
		m.Layers[i].WorkspaceFixed = 0
	}
	slope := float64(bytes2-bytes1) / float64(batch2-batch1) // bytes per sample
	fixed := float64(bytes1) - slope*float64(batch1)
	basePer := float64(m.PerSampleBytes())
	baseFixed := float64(m.FixedBytes())
	wsPer := slope - basePer
	if wsPer < 0 {
		return fmt.Errorf("dnn: %s architecture needs %.0f B/sample but measurements imply %.0f",
			m.Name, basePer, slope)
	}
	wsFixed := fixed - baseFixed
	if wsFixed < 0 {
		wsFixed = 0 // architecture already accounts for the fixed part
	}
	// Distribute proportionally to activation size (larger layers need
	// larger scratch).
	var totalOut float64
	for _, l := range m.Layers {
		totalOut += float64(l.OutPerSample)
	}
	for i := range m.Layers {
		share := float64(m.Layers[i].OutPerSample) / totalOut
		m.Layers[i].StashPerSample = units.Size(wsPer * share)
		m.Layers[i].WorkspaceFixed = units.Size(wsFixed * share)
	}
	return nil
}
