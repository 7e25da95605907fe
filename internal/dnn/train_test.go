package dnn

import (
	"sync"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// tinyModel keeps training tests fast: a 4-layer network whose footprint
// crosses a small generic GPU at moderate batch sizes.
func tinyModel() *ModelSpec {
	m := &ModelSpec{
		Name:        "tiny",
		SampleBytes: 256 * units.KiB,
		LabelBytes:  4 * units.KiB,
		Efficiency:  0.4,
		Layers: []LayerSpec{
			{Name: "l1", OutPerSample: 2 * units.MiB, WeightBytes: 4 * units.MiB, FlopsPerSample: 2e8},
			{Name: "l2", OutPerSample: 2 * units.MiB, WeightBytes: 8 * units.MiB, FlopsPerSample: 4e8},
			{Name: "l3", OutPerSample: units.MiB, WeightBytes: 8 * units.MiB, FlopsPerSample: 4e8},
			{Name: "l4", OutPerSample: units.MiB / 2, WeightBytes: 2 * units.MiB, FlopsPerSample: 1e8},
		},
	}
	// Calibrate so each sample carries stash weight too: ~16 MiB/sample,
	// 100 MiB fixed.
	if err := m.Calibrate(10, 260*units.MiB, 50, 900*units.MiB); err != nil {
		panic(err)
	}
	return m
}

func tinyPlatform() workloads.Platform {
	p := workloads.DefaultPlatform()
	p.GPU = gpudev.Generic(512 * units.MiB)
	return p
}

func TestTrainFitsAllSystemsAgree(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	cfg := TrainConfig{Model: m, Batch: 8, Steps: 4} // ~0.33 GB fits in 0.5 GB
	var through []float64
	for _, sys := range []workloads.System{workloads.NoUVM, workloads.UVMOpt, workloads.UvmDiscard, workloads.UvmDiscardLazy} {
		r, err := Train(p, sys, cfg)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if r.Throughput <= 0 {
			t.Fatalf("%v: zero throughput", sys)
		}
		through = append(through, r.Throughput)
		// When it fits, traffic is just per-step input staging.
		if r.TrafficGB() > 0.1 {
			t.Errorf("%v: traffic %.3f GB at fits", sys, r.TrafficGB())
		}
	}
	// No-UVM is the fastest (no driver bookkeeping); eager discard is the
	// slowest of the UVM variants (unnecessary unmapping, §7.5.1).
	noUVM, uvmOpt, eager, lazy := through[0], through[1], through[2], through[3]
	if noUVM < uvmOpt {
		t.Errorf("No-UVM (%.1f) should be at least as fast as UVM-opt (%.1f)", noUVM, uvmOpt)
	}
	if eager >= uvmOpt {
		t.Errorf("eager discard (%.1f) should cost throughput vs UVM-opt (%.1f) when fitting", eager, uvmOpt)
	}
	if lazy < eager {
		t.Errorf("lazy (%.1f) should beat eager (%.1f)", lazy, eager)
	}
}

func TestTrainOversubscribed(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	cfg := TrainConfig{Model: m, Batch: 60, Steps: 4} // ~1.06 GB vs 0.5 GB

	if _, err := Train(p, workloads.NoUVM, cfg); err == nil {
		t.Error("No-UVM should fail when the footprint exceeds GPU memory")
	}
	base, err := Train(p, workloads.UVMOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := Train(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := Train(p, workloads.UvmDiscardLazy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if disc.TrafficBytes >= base.TrafficBytes {
		t.Errorf("discard traffic %.2f GB >= baseline %.2f GB", disc.TrafficGB(), base.TrafficGB())
	}
	if disc.Throughput <= base.Throughput {
		t.Errorf("discard throughput %.1f <= baseline %.1f", disc.Throughput, base.Throughput)
	}
	if lazy.Throughput < disc.Throughput {
		t.Errorf("lazy (%.1f) should be >= eager (%.1f) when oversubscribed",
			lazy.Throughput, disc.Throughput)
	}
	if disc.SavedD2H == 0 {
		t.Error("no saved D2H under oversubscription")
	}
}

func TestTrainTrafficGrowsWithBatch(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	var prev uint64
	for _, batch := range []int{40, 60, 80} {
		r, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: batch, Steps: 3})
		if err != nil {
			t.Fatal(err)
		}
		if r.TrafficBytes <= prev {
			t.Errorf("traffic did not grow at batch %d: %d <= %d", batch, r.TrafficBytes, prev)
		}
		prev = r.TrafficBytes
	}
}

func TestTrainThroughputFallsWithOversubscription(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	fits, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: 8, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	over, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: 70, Steps: 4})
	if err != nil {
		t.Fatal(err)
	}
	if over.Throughput >= fits.Throughput {
		t.Errorf("throughput should fall under oversubscription: %.1f >= %.1f",
			over.Throughput, fits.Throughput)
	}
}

func TestTrainInvalidConfigs(t *testing.T) {
	p := tinyPlatform()
	if _, err := Train(p, workloads.UVMOpt, TrainConfig{}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Train(p, workloads.UVMOpt, TrainConfig{Model: tinyModel(), Batch: 0}); err == nil {
		t.Error("zero batch accepted")
	}
	if _, err := Train(p, workloads.PyTorchLMS, TrainConfig{Model: tinyModel(), Batch: 4}); err == nil {
		t.Error("LMS should be rejected here (lives in internal/lms)")
	}
}

func TestTrainDeterminism(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	cfg := TrainConfig{Model: m, Batch: 50, Steps: 3}
	a, err := Train(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TrafficBytes != b.TrafficBytes || a.Throughput != b.Throughput {
		t.Error("training runs are not deterministic")
	}
}

// Recomputation drops the stored stashes: the footprint shrinks to the
// activations plus one shared scratch.
func TestRecomputeFootprint(t *testing.T) {
	m := tinyModel()
	for _, batch := range []int{8, 40, 90} {
		full := m.FootprintBytes(batch)
		rec := m.RecomputeFootprintBytes(batch)
		if rec >= full {
			t.Errorf("batch %d: recompute footprint %d not smaller than %d", batch, rec, full)
		}
	}
	if m.MaxStashPerSample(10) == 0 {
		t.Error("max stash should be positive after calibration")
	}
}

// At a batch where normal training oversubscribes but the recompute
// footprint fits, recomputation eliminates the transfers at a compute cost.
func TestRecomputeTradesComputeForTraffic(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	batch := 36 // full footprint ~0.69 GB vs 0.5 GB GPU; recompute ~0.49 GB fits
	if m.FootprintBytes(batch) <= 512*units.MiB {
		t.Fatalf("test premise broken: full footprint fits (%d)", m.FootprintBytes(batch))
	}
	if m.RecomputeFootprintBytes(batch) > 512*units.MiB {
		t.Fatalf("test premise broken: recompute footprint does not fit (%d)",
			m.RecomputeFootprintBytes(batch))
	}
	normal, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: batch, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: batch, Steps: 3, Recompute: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.TrafficBytes*4 > normal.TrafficBytes {
		t.Errorf("recompute should eliminate most traffic: %.3f GB vs %.3f GB",
			float64(rec.TrafficBytes)/1e9, float64(normal.TrafficBytes)/1e9)
	}
	if rec.Footprint >= normal.Footprint {
		t.Error("recompute footprint not reported smaller")
	}
	// The recompute run pays extra forward passes: a fitting run without
	// recompute at a small batch beats a fitting recompute run per sample.
	smallFit, err := Train(p, workloads.UVMOpt, TrainConfig{Model: m, Batch: 8, Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	perSampleFit := 1.0 / smallFit.Throughput * 8
	perSampleRec := 1.0 / rec.Throughput * float64(batch)
	_ = perSampleFit
	_ = perSampleRec
	// (Throughput comparisons across batch sizes are apples-to-oranges in
	// general; the essential assertions are the traffic and footprint.)
}

// Recomputation composes with discard without errors and with no more
// traffic than recomputation alone.
func TestRecomputeComposesWithDiscard(t *testing.T) {
	m := tinyModel()
	p := tinyPlatform()
	cfg := TrainConfig{Model: m, Batch: 90, Steps: 3, Recompute: true}
	plain, err := Train(p, workloads.UVMOpt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	withDiscard, err := Train(p, workloads.UvmDiscard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withDiscard.TrafficBytes > plain.TrafficBytes {
		t.Errorf("discard increased recompute traffic: %d > %d",
			withDiscard.TrafficBytes, plain.TrafficBytes)
	}
}

// One spec may train from several goroutines at once, as the cells of one
// experiment table do: the first use of its memoized layer names must not
// race (go test -race checks it), and every run gives the serial result.
// A trial races only when both first uses overlap, so it runs several,
// each on a fresh spec.
func TestTrainSharedSpecConcurrently(t *testing.T) {
	want, err := Train(tinyPlatform(), workloads.UvmDiscard, TrainConfig{Model: tinyModel(), Batch: 24, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 8; trial++ {
		cfg := TrainConfig{Model: tinyModel(), Batch: 24, Steps: 2}
		var results [2]TrainResult
		var errs [2]error
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				results[i], errs[i] = Train(tinyPlatform(), workloads.UvmDiscard, cfg)
			}()
		}
		close(start)
		wg.Wait()
		for i, r := range results {
			if errs[i] != nil {
				t.Fatalf("trial %d run %d: %v", trial, i, errs[i])
			}
			if r.Runtime != want.Runtime || r.TrafficBytes != want.TrafficBytes {
				t.Fatalf("trial %d run %d: runtime %v, traffic %d; serial run: %v, %d",
					trial, i, r.Runtime, r.TrafficBytes, want.Runtime, want.TrafficBytes)
			}
		}
	}
}
