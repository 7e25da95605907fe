package core

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Micro-benchmarks for the driver's hot paths — these bound how fast the
// simulator itself runs (simulated block-operations per wall-second), which
// matters because the DL sweeps push hundreds of thousands of block ops per
// experiment.

// newBenchDriver builds a driver on a GPU of gpuBlocks blocks. Its
// sanitizer stride is set past any benchmark's operation count, so the
// full sweep TestMain would otherwise force after every operation stays out
// of the timing, as in TestRunAccessIsConstantTime.
func newBenchDriver(b *testing.B, gpuBlocks int) *Driver {
	b.Helper()
	params := DefaultParams()
	params.CheckInvariantsEvery = 1 << 30
	d, err := New(Config{GPU: gpudev.Generic(units.Size(gpuBlocks) * units.BlockSize), Params: &params})
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

func BenchmarkDriverEvictionChurn(b *testing.B) {
	// Footprint 2x capacity: every access round is all-miss with LRU
	// evictions — the simulator's worst case.
	d := newBenchDriver(b, 64)
	a, err := d.AllocManaged("churn", 128*units.BlockSize)
	if err != nil {
		b.Fatal(err)
	}
	cpuAccess(b, d, a, Write, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.NumBlocks()*b.N)/b.Elapsed().Seconds(), "blockops/s")
}
