package core

import (
	"context"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Micro-benchmarks for the driver's hot paths — these bound how fast the
// simulator itself runs (simulated block-operations per wall-second), which
// matters because the DL sweeps push hundreds of thousands of block ops per
// experiment.

// newBenchDriver builds a driver on a GPU of gpuBlocks blocks (see
// newBenchDriverOn).
func newBenchDriver(b *testing.B, gpuBlocks int) *Driver {
	return newBenchDriverOn(b, gpudev.Generic(units.Size(gpuBlocks)*units.BlockSize), nil)
}

// newBenchDriverOn builds a driver on GPU gpu under run control ctl (nil:
// none). Its sanitizer stride is set past any benchmark's operation count,
// so the full sweep TestMain would otherwise force after every operation
// stays out of the timing, as in TestRunAccessIsConstantTime.
func newBenchDriverOn(b *testing.B, gpu gpudev.Profile, ctl *runctl.Control) *Driver {
	b.Helper()
	params := DefaultParams()
	params.CheckInvariantsEvery = 1 << 30
	d, err := New(Config{GPU: gpu, Params: &params, Control: ctl})
	if err != nil {
		b.Fatal(err)
	}
	if d.p.CheckInvariantsEvery == 1 {
		b.Fatal("benchmark driver runs the sanitizer after every operation")
	}
	return d
}

func benchDriver(b *testing.B, blocks int) (*Driver, *vaspace.Alloc) {
	b.Helper()
	d := newBenchDriver(b, blocks)
	a, err := d.AllocManaged("bench", units.Size(blocks/2)*units.BlockSize)
	if err != nil {
		b.Fatal(err)
	}
	return d, a
}

func BenchmarkDriverResidentHit(b *testing.B) {
	d, a := benchDriver(b, 256)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NumBlocks()*b.N)/b.Elapsed().Seconds(), "blockops/s")
}

func BenchmarkDriverMigrationPingPong(b *testing.B) {
	d, a := benchDriver(b, 256)
	cpuAccess(b, d, a, Write, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
			b.Fatal(err)
		}
		cpuAccess(b, d, a, Read, 0)
	}
	b.ReportMetric(float64(2*a.NumBlocks()*b.N)/b.Elapsed().Seconds(), "blockops/s")
}

func BenchmarkDriverDiscardRecover(b *testing.B) {
	d, a := benchDriver(b, 256)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		b.Fatal(err)
	}
	size := uint64(a.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Discard(a, 0, size, 0); err != nil {
			b.Fatal(err)
		}
		if _, err := d.PrefetchToGPU(a, 0, size, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDriverEvictionChurn runs an all-miss access round over a
// footprint twice the GPU's capacity: every block evicts its LRU victim to
// the host and migrates in, the simulator's worst case. On 64 chunks all of
// the driver's block and chunk state fits in L1. RTX3080Ti-armed is the same
// churn at paper scale, on the GPU every DL cell runs on and under a run
// control, as every paper_full cell is, so the tables' size and the GC's
// work on them show in the time.
func BenchmarkDriverEvictionChurn(b *testing.B) {
	b.Run("64chunks", func(b *testing.B) {
		evictionChurn(b, newBenchDriver(b, 64))
	})
	b.Run("RTX3080Ti-armed", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		evictionChurn(b, newBenchDriverOn(b, gpudev.RTX3080Ti(), runctl.New(ctx, 0, 0)))
	})
}

func evictionChurn(b *testing.B, d *Driver) {
	a, err := d.AllocManaged("churn", 2*d.Device().UsableBytes())
	if err != nil {
		b.Fatal(err)
	}
	cpuAccess(b, d, a, Write, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NumBlocks()*b.N)/b.Elapsed().Seconds(), "blockops/s")
}
