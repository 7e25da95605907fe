package core

import (
	"context"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
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
// work on them show in the time. RTX3080Ti-armed-scatter is the churn in
// radix sort's shape: two buffers of the GPU's size, swept in interleaved
// strips whose order and whose blocks' order are shuffled; every strip pass
// is a fill pass (fill.go), which it checks. The whole-buffer churns are
// fill passes only in their first round: a later round starts with the
// buffer's second half resident, which the pass evicts before reaching it,
// so its scan sees hits and the pass takes the generic loop.
func BenchmarkDriverEvictionChurn(b *testing.B) {
	b.Run("64chunks", func(b *testing.B) {
		evictionChurn(b, newBenchDriver(b, 64))
	})
	b.Run("RTX3080Ti-armed", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		evictionChurn(b, newBenchDriverOn(b, gpudev.RTX3080Ti(), runctl.New(ctx, 0, 0)))
	})
	b.Run("RTX3080Ti-armed-scatter", func(b *testing.B) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		scatterChurn(b, newBenchDriverOn(b, gpudev.RTX3080Ti(), runctl.New(ctx, 0, 0)))
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

// scatterChurn sweeps a source and a destination buffer, each the size of
// the GPU, in 128-block strips as radix sort's kernels do: a read of a
// source strip, then a read-write of a destination strip, in a shuffled
// strip order, each strip's blocks in a shuffled order. The orders are drawn
// once, outside the timing.
func scatterChurn(b *testing.B, d *Driver) {
	const stripBlocks = 128
	size := d.Device().UsableBytes()
	src, err := d.AllocManaged("src", size)
	if err != nil {
		b.Fatal(err)
	}
	dst, err := d.AllocManaged("dst", size)
	if err != nil {
		b.Fatal(err)
	}
	cpuAccess(b, d, src, Write, 0)
	cpuAccess(b, d, dst, Write, 0)
	type strip struct {
		a     *vaspace.Alloc
		first int
		order []int
		mode  AccessMode
	}
	rng := sim.NewRNG(1)
	strips := (src.NumBlocks() + stripBlocks - 1) / stripBlocks
	var sweep []strip
	for _, s := range rng.Perm(strips) {
		for _, x := range []struct {
			a    *vaspace.Alloc
			mode AccessMode
		}{{src, Read}, {dst, ReadWrite}} {
			first := s * stripBlocks
			n := min(stripBlocks, x.a.NumBlocks()-first)
			order := rng.Perm(n)
			for i := range order {
				order[i] += first
			}
			sweep = append(sweep, strip{x.a, first, order, x.mode})
		}
	}
	bs := uint64(units.BlockSize)
	fills := d.fillPasses
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sweep {
			off := uint64(s.first) * bs
			length := min(uint64(len(s.order))*bs, uint64(s.a.Size())-off)
			if _, err := d.GPUAccessOn(0, s.a, off, length, s.order, s.mode, 0); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64((src.NumBlocks()+dst.NumBlocks())*b.N)/b.Elapsed().Seconds(), "blockops/s")
	if got, want := d.fillPasses-fills, uint64(len(sweep)*b.N); got != want {
		b.Fatalf("%d of the %d strip passes ran as fill passes, want all", got, want)
	}
}
