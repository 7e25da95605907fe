package cuda

import (
	"testing"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

func testCtx(t *testing.T, blocks int) *Context {
	t.Helper()
	c, err := NewContext(core.Config{
		GPU: gpudev.Generic(units.Size(blocks) * units.BlockSize),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestVectorAddLifecycle(t *testing.T) {
	// Listing 2: the UVM VectorAdd example, with a functional payload.
	ctx := testCtx(t, 16)
	n := int(units.BlockSize) // one block of float-free byte "vectors"
	a, err := ctx.MallocManaged("A", units.Size(n))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := ctx.MallocManaged("B", units.Size(n))
	out, _ := ctx.MallocManaged("C", units.Size(n))

	// Generate input data on the host.
	if err := a.HostWrite(0, a.Size()); err != nil {
		t.Fatal(err)
	}
	if err := b.HostWrite(0, b.Size()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		a.Data()[i] = byte(i)
		b.Data()[i] = byte(2 * i)
	}

	s := ctx.Stream("s")
	if err := s.PrefetchAll(a, ToGPU); err != nil {
		t.Fatal(err)
	}
	if err := s.PrefetchAll(b, ToGPU); err != nil {
		t.Fatal(err)
	}
	if err := s.PrefetchAll(out, ToGPU); err != nil {
		t.Fatal(err)
	}
	err = s.Launch(Kernel{
		Name:    "vectorAdd",
		Compute: ctx.ComputeForBytes(float64(3 * n)),
		Accesses: []Access{
			{Buf: a, Mode: core.Read},
			{Buf: b, Mode: core.Read},
			{Buf: out, Mode: core.Write},
		},
		Fn: func() {
			for i := 0; i < n; i++ {
				out.Data()[i] = a.Data()[i] + b.Data()[i]
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx.DeviceSynchronize()
	if err := out.HostRead(0, out.Size()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 997 {
		if out.Data()[i] != byte(i)+byte(2*i) {
			t.Fatalf("C[%d] = %d, want %d", i, out.Data()[i], byte(i)+byte(2*i))
		}
	}
	// A and B migrated H2D; C was prefaulted on the GPU (zero-fill, no
	// transfer) and came back D2H.
	m := ctx.Metrics()
	if got := m.TotalBytes(metrics.H2D); got != uint64(2*n) {
		t.Errorf("H2D = %d, want %d", got, 2*n)
	}
	if got := m.TotalBytes(metrics.D2H); got != uint64(n) {
		t.Errorf("D2H = %d, want %d", got, n)
	}
	if ctx.Elapsed() <= 0 {
		t.Error("no time elapsed")
	}
}

func TestStreamOrdering(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", units.BlockSize)
	s := ctx.Stream("s")
	if err := s.PrefetchAll(buf, ToGPU); err != nil {
		t.Fatal(err)
	}
	t1 := s.Tail()
	if err := s.Launch(Kernel{Name: "k", Compute: sim.Millisecond,
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if s.Tail() < t1+sim.Millisecond {
		t.Errorf("kernel did not serialize after prefetch: %v < %v", s.Tail(), t1+sim.Millisecond)
	}
}

func TestCrossStreamOverlap(t *testing.T) {
	// Two independent kernels on two streams share the compute engine and
	// serialize there; but a prefetch on stream B overlaps with a kernel
	// on stream A.
	ctx := testCtx(t, 16)
	a, _ := ctx.MallocManaged("a", units.BlockSize)
	b, _ := ctx.MallocManaged("b", 4*units.BlockSize)
	if err := b.HostWrite(0, b.Size()); err != nil {
		t.Fatal(err)
	}

	s1, s2 := ctx.Stream("compute"), ctx.Stream("copy")
	if err := s1.Launch(Kernel{Name: "k", Compute: 10 * sim.Millisecond,
		Accesses: []Access{{Buf: a, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.PrefetchAll(b, ToGPU); err != nil {
		t.Fatal(err)
	}
	// The prefetch ran on the DMA engine while the kernel computed: its
	// completion is far earlier than the kernel's.
	if s2.Tail() >= s1.Tail() {
		t.Errorf("no overlap: prefetch tail %v >= kernel tail %v", s2.Tail(), s1.Tail())
	}
	ctx.DeviceSynchronize()
	if ctx.Clock().Now() < s1.Tail() {
		t.Error("DeviceSynchronize did not wait for the slowest stream")
	}
}

func TestComputeEngineSerializesKernels(t *testing.T) {
	ctx := testCtx(t, 8)
	a, _ := ctx.MallocManaged("a", units.BlockSize)
	b, _ := ctx.MallocManaged("b", units.BlockSize)
	s1, s2 := ctx.Stream("1"), ctx.Stream("2")
	if err := s1.Launch(Kernel{Name: "k1", Compute: 5 * sim.Millisecond,
		Accesses: []Access{{Buf: a, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Launch(Kernel{Name: "k2", Compute: 5 * sim.Millisecond,
		Accesses: []Access{{Buf: b, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if s2.Tail() < 10*sim.Millisecond {
		t.Errorf("kernels overlapped on one compute engine: tail %v", s2.Tail())
	}
}

func TestEvents(t *testing.T) {
	ctx := testCtx(t, 8)
	a, _ := ctx.MallocManaged("a", units.BlockSize)
	s1, s2 := ctx.Stream("1"), ctx.Stream("2")
	if err := s1.Launch(Kernel{Name: "k", Compute: 3 * sim.Millisecond,
		Accesses: []Access{{Buf: a, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	ev := ctx.NewEvent()
	if ev.Recorded() {
		t.Error("fresh event claims recorded")
	}
	s1.RecordEvent(ev)
	if !ev.Recorded() || ev.Time() != s1.Tail() {
		t.Error("event record wrong")
	}
	s2.WaitEvent(ev)
	if s2.Tail() != s1.Tail() {
		t.Error("WaitEvent did not order streams")
	}
	// Waiting on an unrecorded event is a no-op.
	s2.WaitEvent(ctx.NewEvent())
	if s2.Tail() != s1.Tail() {
		t.Error("unrecorded event moved the stream")
	}
}

func TestDiscardAPIsChargeHostTime(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 8*units.MiB)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "k", Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	before := ctx.Clock().Now()
	if err := s.DiscardAll(buf); err != nil {
		t.Fatal(err)
	}
	eager := ctx.Clock().Now() - before
	wantEager := ctx.Driver().Costs().Discard.Eval(8 * units.MiB)
	if eager != wantEager {
		t.Errorf("eager discard host cost = %v, want %v", eager, wantEager)
	}
	// Re-populate then lazy-discard: cheaper call.
	if err := s.PrefetchAll(buf, ToGPU); err != nil {
		t.Fatal(err)
	}
	before = ctx.Clock().Now()
	if err := s.DiscardLazyAll(buf); err != nil {
		t.Fatal(err)
	}
	lazy := ctx.Clock().Now() - before
	if lazy >= eager {
		t.Errorf("lazy call (%v) not cheaper than eager (%v)", lazy, eager)
	}
	if ctx.Metrics().APITime("UvmDiscard") != wantEager {
		t.Error("API time not attributed")
	}
}

func TestKernelThrashingPasses(t *testing.T) {
	ctx := testCtx(t, 4)
	buf, _ := ctx.MallocManaged("big", 8*units.BlockSize)
	if err := buf.HostWrite(0, buf.Size()); err != nil {
		t.Fatal(err)
	}
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{
		Name:     "thrash",
		Accesses: []Access{{Buf: buf, Mode: core.ReadWrite, Passes: 3}},
	}); err != nil {
		t.Fatal(err)
	}
	// Footprint 2x capacity with 3 sequential passes: every pass misses
	// everything: 24 block transfers H2D.
	h2d := ctx.Metrics().TotalBytes(metrics.H2D)
	if h2d != uint64(24*units.BlockSize) {
		t.Errorf("H2D = %d blocks, want 24", h2d/uint64(units.BlockSize))
	}
}

func TestScatterAccessCoversAllBlocks(t *testing.T) {
	ctx := testCtx(t, 16)
	buf, _ := ctx.MallocManaged("x", 8*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{
		Name:     "scatter",
		Accesses: []Access{{Buf: buf, Mode: core.Write, Scatter: true}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < buf.Alloc().NumBlocks(); i++ {
		if buf.Alloc().Block(i).Residency.String() != "gpu" {
			t.Fatalf("block %d not resident after scatter access", i)
		}
	}
}

func TestNoUVMDeviceBuffers(t *testing.T) {
	ctx := testCtx(t, 8)
	db, err := ctx.Malloc(4 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if db.Size() != 4*units.BlockSize {
		t.Error("size wrong")
	}
	s := ctx.Stream("s")
	s.MemcpyHostToDevice(4 * units.BlockSize)
	s.MemcpyDeviceToHost(2 * units.BlockSize)
	if ctx.Metrics().Bytes(metrics.H2D, metrics.CauseMemcpy) != uint64(4*units.BlockSize) {
		t.Error("H2D memcpy not recorded")
	}
	// Allocation beyond capacity fails.
	if _, err := ctx.Malloc(8 * units.BlockSize); err == nil {
		t.Error("oversized cudaMalloc accepted")
	}
	db.Free()
	full, err := ctx.Malloc(8 * units.BlockSize)
	if err != nil {
		t.Errorf("full-capacity alloc after free failed: %v", err)
	} else {
		if _, err := ctx.Malloc(units.BlockSize); err == nil {
			t.Error("alloc beyond exhausted capacity accepted")
		}
		full.Free()
	}
}

func TestKernelLengthDefaultsToWholeBuffer(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 3*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "k",
		Accesses: []Access{{Buf: buf, Offset: units.BlockSize, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if buf.Alloc().Block(0).Residency.String() == "gpu" {
		t.Error("offset ignored")
	}
	if buf.Alloc().Block(2).Residency.String() != "gpu" {
		t.Error("default length did not reach buffer end")
	}
}

func TestKernelBadRangeError(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", units.BlockSize)
	s := ctx.Stream("s")
	err := s.Launch(Kernel{Name: "bad",
		Accesses: []Access{{Buf: buf, Offset: 0, Length: 2 * units.BlockSize, Mode: core.Read}}})
	if err == nil {
		t.Error("out-of-range access accepted")
	}
}

func TestBufferFreeChargesCost(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 2*units.MiB)
	before := ctx.Clock().Now()
	if err := buf.Free(); err != nil {
		t.Fatal(err)
	}
	if ctx.Clock().Now() == before {
		t.Error("free charged no host time")
	}
	if buf.Free() == nil {
		t.Error("double free accepted")
	}
}

func TestComputeHelpers(t *testing.T) {
	ctx := testCtx(t, 8)
	if ctx.ComputeForFlops(10e12) != sim.Second {
		t.Errorf("10 TFLOP on 10 TFLOPS GPU should take 1s, got %v",
			ctx.ComputeForFlops(10e12))
	}
	if ctx.ComputeForBytes(500e9) != sim.Second {
		t.Errorf("500 GB at 500 GB/s should take 1s, got %v",
			ctx.ComputeForBytes(500e9))
	}
}

func TestStreamMemAdvise(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("w", 4*units.MiB)
	if err := buf.HostWrite(0, buf.Size()); err != nil {
		t.Fatal(err)
	}
	s := ctx.Stream("s")
	if err := s.MemAdviseAll(buf, core.AdviseSetReadMostly); err != nil {
		t.Fatal(err)
	}
	if !buf.Alloc().Block(0).ReadMostly {
		t.Error("advice not applied")
	}
	if err := s.MemAdvise(buf, 0, 2*units.MiB, core.AdviseSetPreferredGPU); err != nil {
		t.Fatal(err)
	}
	if buf.Alloc().Block(0).Preferred.String() != "gpu" {
		t.Error("preferred location not applied")
	}
	// Range validation propagates.
	if err := s.MemAdvise(buf, 0, 100*units.MiB, core.AdviseSetReadMostly); err == nil {
		t.Error("out-of-range advice accepted")
	}
	if ctx.Metrics().APITime("cudaMemAdvise") == 0 {
		t.Error("advise API time not attributed")
	}
}

// The address-range discard entry point (the real UvmDiscard signature).
func TestDiscardByAddress(t *testing.T) {
	ctx := testCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 4*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "k",
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	va := buf.Alloc().Base() + uint64(units.BlockSize)
	if err := s.DiscardAddrAsync(va, 2*units.BlockSize); err != nil {
		t.Fatal(err)
	}
	a := buf.Alloc()
	if a.Block(0).Discarded || !a.Block(1).Discarded || !a.Block(2).Discarded || a.Block(3).Discarded {
		t.Error("address-range discard covered the wrong blocks")
	}
	// Lazy flavor on the remaining block.
	if err := s.DiscardLazyAddrAsync(a.Base(), units.BlockSize); err != nil {
		t.Fatal(err)
	}
	if !a.Block(0).LazyDiscard {
		t.Error("lazy address discard missed")
	}
	// Errors: unmanaged address, range past the allocation end.
	if err := s.DiscardAddrAsync(0xdead0000_0000, units.BlockSize); err == nil {
		t.Error("wild address accepted")
	}
	if err := s.DiscardAddrAsync(a.Base(), 100*units.BlockSize); err == nil {
		t.Error("overlong range accepted")
	}
}
