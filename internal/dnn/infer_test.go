package dnn

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func servingPlatform() workloads.Platform {
	p := workloads.DefaultPlatform()
	p.GPU = gpudev.Generic(256 * units.MiB)
	return p
}

func servedModel() *ModelSpec {
	return LargeModel(384*units.MiB, 8) // 1.5x GPU memory in weights
}

func TestLargeModelShape(t *testing.T) {
	m := LargeModel(240*units.MiB, 6)
	if len(m.Layers) != 6 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	if m.TotalWeights() != 240*units.MiB {
		t.Errorf("weights = %s", units.Format(m.TotalWeights()))
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if LargeModel(units.GiB, 0).Layers == nil {
		t.Error("default layer count broken")
	}
}

func TestInferWeightsEvictWithoutHints(t *testing.T) {
	r, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Oversubscribed weights ping-pong: substantial D2H despite the
	// weights never being modified.
	if r.D2HBytes < uint64(100*units.MiB) {
		t.Errorf("expected weight eviction D2H, got %.3f GB", float64(r.D2HBytes)/1e9)
	}
	if r.Throughput <= 0 {
		t.Error("no throughput")
	}
}

func TestReadMostlyEliminatesWeightEvictions(t *testing.T) {
	base, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	hinted, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3, AdviseWeights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.D2HBytes*4 > base.D2HBytes {
		t.Errorf("read-mostly should eliminate most D2H: %.3f GB vs %.3f GB",
			float64(hinted.D2HBytes)/1e9, float64(base.D2HBytes)/1e9)
	}
	if hinted.Throughput <= base.Throughput {
		t.Errorf("read-mostly should improve throughput: %.1f vs %.1f",
			hinted.Throughput, base.Throughput)
	}
}

func TestInferDiscardAndHintsCompose(t *testing.T) {
	both, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3,
		Discard: true, AdviseWeights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	only, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3, AdviseWeights: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if both.TrafficBytes > only.TrafficBytes {
		t.Errorf("adding discard should not add traffic: %.3f vs %.3f GB",
			float64(both.TrafficBytes)/1e9, float64(only.TrafficBytes)/1e9)
	}
}

func TestInferInvalidConfig(t *testing.T) {
	if _, err := Infer(servingPlatform(), InferConfig{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Infer(servingPlatform(), InferConfig{Model: servedModel()}); err == nil {
		t.Error("zero batch accepted")
	}
}

func TestInferDeterminism(t *testing.T) {
	cfg := InferConfig{Model: servedModel(), Batch: 8, Requests: 3, Discard: true}
	a, err := Infer(servingPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Infer(servingPlatform(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrafficBytes != b.TrafficBytes || a.Runtime != b.Runtime {
		t.Error("inference runs are not deterministic")
	}
}

// Pipeline serving: splitting the stages across two GPUs halves each
// stage's weight footprint — the weights fit, the ping-pong disappears,
// and the activations hand off over the peer fabric.
func TestInferPipelineAcrossGPUs(t *testing.T) {
	one, err := Infer(servingPlatform(), InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := servingPlatform()
	p.GPUs = 2
	two, err := Infer(p, InferConfig{
		Model: servedModel(), Batch: 8, Requests: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 384 MiB of weights across two 256 MiB GPUs: everything fits.
	if two.TrafficBytes*2 > one.TrafficBytes {
		t.Errorf("pipelining should slash PCIe traffic: %.3f GB vs %.3f GB",
			float64(two.TrafficBytes)/1e9, float64(one.TrafficBytes)/1e9)
	}
	if two.PeerBytes == 0 {
		t.Error("no peer handoffs recorded")
	}
	if two.Throughput <= one.Throughput {
		t.Errorf("pipeline not faster: %.1f <= %.1f", two.Throughput, one.Throughput)
	}
	// Validation: more stages than layers.
	p.GPUs = 99
	if _, err := Infer(p, InferConfig{Model: servedModel(), Batch: 8}); err == nil {
		t.Error("over-partitioning accepted")
	}
}
