package dnn

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

func dpPlatform(gpus int) workloads.Platform {
	return workloads.Platform{GPU: gpudev.Generic(512 * units.MiB), Gen: pcie.Gen4, GPUs: gpus}
}

func TestDataParallelValidation(t *testing.T) {
	if _, err := TrainDataParallel(dpPlatform(0), workloads.UVMOpt,
		DataParallelConfig{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := TrainDataParallel(dpPlatform(2), workloads.UVMOpt,
		DataParallelConfig{Model: tinyModel(), GlobalBatch: 7}); err == nil {
		t.Error("indivisible batch accepted")
	}
	if _, err := TrainDataParallel(dpPlatform(2), workloads.NoUVM,
		DataParallelConfig{Model: tinyModel(), GlobalBatch: 8}); err == nil {
		t.Error("No-UVM accepted")
	}
}

// Two fitting replicas nearly double throughput over one GPU, minus the
// all-reduce cost.
func TestDataParallelScaling(t *testing.T) {
	m := tinyModel()
	one, err := TrainDataParallel(dpPlatform(1), workloads.UVMOpt,
		DataParallelConfig{Model: m, GlobalBatch: 16, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	two, err := TrainDataParallel(dpPlatform(2), workloads.UVMOpt,
		DataParallelConfig{Model: m, GlobalBatch: 16, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	speedup := two.Throughput / one.Throughput
	if speedup < 1.4 || speedup > 2.05 {
		t.Errorf("2-GPU speedup = %.2fx, want ~2x minus all-reduce", speedup)
	}
	// The all-reduce crossed the peer fabric.
	if two.Result.RemoteH2D != 0 {
		t.Error("unexpected remote traffic")
	}
}

// Sharding the batch halves each replica's footprint: pressure that
// saturates one GPU vanishes across two, shrinking both the traffic and
// the discard benefit (the same effect recomputation has).
func TestDataParallelReducesPressure(t *testing.T) {
	m := tinyModel()
	batch := 56 // one GPU: ~1 GB footprint vs 0.5 GB; two GPUs: fits
	one, err := TrainDataParallel(dpPlatform(1), workloads.UVMOpt,
		DataParallelConfig{Model: m, GlobalBatch: batch, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	two, err := TrainDataParallel(dpPlatform(2), workloads.UVMOpt,
		DataParallelConfig{Model: m, GlobalBatch: batch, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if two.TrafficBytes*2 > one.TrafficBytes {
		t.Errorf("sharding should slash PCIe traffic: %.3f GB vs %.3f GB",
			float64(two.TrafficBytes)/1e9, float64(one.TrafficBytes)/1e9)
	}
	if two.Throughput <= one.Throughput {
		t.Errorf("2 GPUs slower than 1: %.1f vs %.1f", two.Throughput, one.Throughput)
	}
}

// Discard still composes when a sharded replica remains oversubscribed.
func TestDataParallelWithDiscard(t *testing.T) {
	m := tinyModel()
	batch := 112 // each of 2 replicas still oversubscribes (~1 GB shard)
	base, err := TrainDataParallel(dpPlatform(2), workloads.UVMOpt,
		DataParallelConfig{Model: m, GlobalBatch: batch, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	disc, err := TrainDataParallel(dpPlatform(2), workloads.UvmDiscard,
		DataParallelConfig{Model: m, GlobalBatch: batch, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	if disc.TrafficBytes >= base.TrafficBytes {
		t.Errorf("discard did not cut sharded traffic: %d >= %d",
			disc.TrafficBytes, base.TrafficBytes)
	}
	if disc.Throughput <= base.Throughput {
		t.Errorf("discard did not help sharded throughput: %.1f <= %.1f",
			disc.Throughput, base.Throughput)
	}
}

func TestDataParallelDeterminism(t *testing.T) {
	m := tinyModel()
	cfg := DataParallelConfig{Model: m, GlobalBatch: 32, Steps: 3}
	a, err := TrainDataParallel(dpPlatform(2), workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainDataParallel(dpPlatform(2), workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrafficBytes != b.TrafficBytes || a.Throughput != b.Throughput {
		t.Error("data-parallel runs are not deterministic")
	}
}
