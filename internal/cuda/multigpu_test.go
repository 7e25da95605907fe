package cuda

import (
	"testing"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

func dualCtx(t *testing.T, blocksEach int) *Context {
	t.Helper()
	mem := units.Size(blocksEach) * units.BlockSize
	c, err := NewContext(core.Config{
		GPU:      gpudev.Generic(mem),
		PeerGPUs: []gpudev.Profile{gpudev.Generic(mem)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestMultiGPUContext(t *testing.T) {
	ctx := dualCtx(t, 8)
	if ctx.NumGPUs() != 2 {
		t.Fatalf("GPUs = %d", ctx.NumGPUs())
	}
	if ctx.Driver().NumGPUs() != 2 {
		t.Fatal("driver GPU count wrong")
	}
	if ctx.ComputeAt(0) == ctx.ComputeAt(1) {
		t.Error("compute engines shared across GPUs")
	}
	if ctx.Driver().PeerLink().PeakBandwidth() < 100e9 {
		t.Error("default peer fabric should be NVSwitch-class")
	}
}

func TestKernelTargetsGPU(t *testing.T) {
	ctx := dualCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "k", GPU: 1,
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	b := buf.Alloc().Block(0)
	if b.Residency != vaspace.GPUResident || b.GPUIndex != 1 {
		t.Fatalf("block on GPU %d, want 1 (%v)", b.GPUIndex, b.Residency)
	}
	if ctx.Driver().DeviceAt(1).QueueLen(gpudev.QueueUsed) != 1 {
		t.Error("chunk not on GPU 1's used queue")
	}
	if ctx.Driver().DeviceAt(0).QueueLen(gpudev.QueueUsed) != 0 {
		t.Error("chunk leaked onto GPU 0")
	}
	if err := s.Launch(Kernel{Name: "bad", GPU: 7}); err == nil {
		t.Error("out-of-range GPU accepted")
	}
}

// Data produced on one GPU and consumed on another migrates over the peer
// fabric, not over PCIe.
func TestPeerMigration(t *testing.T) {
	ctx := dualCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 2*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "produce", GPU: 0,
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(Kernel{Name: "consume", GPU: 1,
		Accesses: []Access{{Buf: buf, Mode: core.Read}}}); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	peerBytes, peerOps := m.Peer()
	if peerBytes != uint64(2*units.BlockSize) || peerOps != 2 {
		t.Errorf("peer = %d bytes / %d ops", peerBytes, peerOps)
	}
	if m.Traffic() != 0 {
		t.Errorf("peer migration crossed host DRAM: %d PCIe bytes", m.Traffic())
	}
	b := buf.Alloc().Block(0)
	if b.GPUIndex != 1 {
		t.Error("block did not move to GPU 1")
	}
	// Source chunks were freed.
	if ctx.Driver().DeviceAt(0).QueueLen(gpudev.QueueFree) != 8 {
		t.Error("source chunks not freed")
	}
	if err := ctx.Driver().DeviceAt(0).CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := ctx.Driver().DeviceAt(1).CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// Discarding before handing a buffer to a peer skips the peer transfer —
// the discard directive works across GPUs too.
func TestDiscardSkipsPeerTransfer(t *testing.T) {
	ctx := dualCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", 2*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "produce", GPU: 0,
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.DiscardAll(buf); err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(Kernel{Name: "overwrite", GPU: 1,
		Accesses: []Access{{Buf: buf, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	m := ctx.Metrics()
	if peerBytes, _ := m.Peer(); peerBytes != 0 {
		t.Errorf("peer moved %d bytes despite discard", peerBytes)
	}
	if m.PeerSaved() != uint64(2*units.BlockSize) {
		t.Errorf("peer saved = %d", m.PeerSaved())
	}
	if buf.Alloc().Block(0).GPUIndex != 1 {
		t.Error("block not repopulated on GPU 1")
	}
	// GPU 0's chunks were reclaimed.
	if ctx.Driver().DeviceAt(0).QueueLen(gpudev.QueueFree) != 8 {
		t.Error("discarded peer chunks not reclaimed")
	}
}

// Kernels on different GPUs overlap in time; same-GPU kernels serialize.
func TestCrossGPUComputeOverlap(t *testing.T) {
	ctx := dualCtx(t, 8)
	a, _ := ctx.MallocManaged("a", units.BlockSize)
	b, _ := ctx.MallocManaged("b", units.BlockSize)
	s1, s2 := ctx.Stream("1"), ctx.Stream("2")
	if err := s1.Launch(Kernel{Name: "k0", GPU: 0, Compute: 10 * sim.Millisecond,
		Accesses: []Access{{Buf: a, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s2.Launch(Kernel{Name: "k1", GPU: 1, Compute: 10 * sim.Millisecond,
		Accesses: []Access{{Buf: b, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if s2.Tail() >= 20*sim.Millisecond {
		t.Errorf("cross-GPU kernels serialized: tail %v", s2.Tail())
	}
}

func TestPrefetchAllTo(t *testing.T) {
	ctx := dualCtx(t, 8)
	buf, _ := ctx.MallocManaged("x", units.BlockSize)
	if err := buf.HostWrite(0, buf.Size()); err != nil {
		t.Fatal(err)
	}
	s := ctx.Stream("s")
	if err := s.PrefetchAllTo(buf, 1); err != nil {
		t.Fatal(err)
	}
	b := buf.Alloc().Block(0)
	if b.Residency != vaspace.GPUResident || b.GPUIndex != 1 {
		t.Errorf("prefetch landed on GPU %d", b.GPUIndex)
	}
	if ctx.Metrics().Bytes(metrics.H2D, metrics.CausePrefetch) != uint64(units.BlockSize) {
		t.Error("prefetch traffic missing")
	}
}

// Each GPU evicts independently: pressure on GPU 1 does not disturb GPU 0.
func TestPerGPUEviction(t *testing.T) {
	ctx := dualCtx(t, 2)
	a, _ := ctx.MallocManaged("a", 2*units.BlockSize)
	big, _ := ctx.MallocManaged("big", 3*units.BlockSize)
	s := ctx.Stream("s")
	if err := s.Launch(Kernel{Name: "fill0", GPU: 0,
		Accesses: []Access{{Buf: a, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(Kernel{Name: "fill1", GPU: 1,
		Accesses: []Access{{Buf: big, Mode: core.Write}}}); err != nil {
		t.Fatal(err)
	}
	// GPU 1 (2 chunks) had to evict for big's 3 blocks; GPU 0's data is
	// untouched.
	for i := 0; i < a.Alloc().NumBlocks(); i++ {
		if b := a.Alloc().Block(i); b.Residency != vaspace.GPUResident || b.GPUIndex != 0 {
			t.Errorf("GPU 0 block disturbed: %+v", b)
		}
	}
	if ctx.Metrics().Evictions(metrics.EvictLRU) == 0 {
		t.Error("GPU 1 never evicted")
	}
}
