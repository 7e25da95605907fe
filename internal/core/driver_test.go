package core

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// testDriver builds a driver with a small generic GPU of the given capacity
// in blocks, tracing enabled.
func testDriver(t *testing.T, blocks int) *Driver {
	t.Helper()
	d, err := New(Config{
		GPU:   gpudev.Generic(units.Size(blocks) * units.BlockSize),
		Link:  pcie.Preset(pcie.Gen4),
		Trace: trace.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustAlloc(t *testing.T, d *Driver, name string, size units.Size) *vaspace.Alloc {
	t.Helper()
	a, err := d.AllocManaged(name, size)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// gpuAccess runs one GPU access over the whole of a at time zero.
func gpuAccess(t *testing.T, d *Driver, a *vaspace.Alloc, mode AccessMode) {
	t.Helper()
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), mode, 0); err != nil {
		t.Fatal(err)
	}
}

// cpuAccess runs one host access over the whole of a at now and returns
// its completion time.
func cpuAccess(t testing.TB, d *Driver, a *vaspace.Alloc, mode AccessMode, now sim.Time) sim.Time {
	t.Helper()
	done, err := d.CPUAccessRange(a, 0, uint64(a.Size()), mode, now)
	if err != nil {
		t.Fatal(err)
	}
	return done
}

// allBlocks returns pointers to every block of a, in index order.
func allBlocks(a *vaspace.Alloc) []*vaspace.Block {
	bs := make([]*vaspace.Block, a.NumBlocks())
	for i := range bs {
		bs[i] = a.Block(i)
	}
	return bs
}

// --- Figure 1: typical UVM buffer lifetime ---

func TestFigure1Lifecycle(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "buf", 2*units.BlockSize)

	// Step 1: host writes initial data — zero-filled CPU pages.
	cpuAccess(t, d, a, Write, 0)
	for _, b := range allBlocks(a) {
		if b.Residency != vaspace.CPUResident || !b.CPUHasPages || b.CPUPinned {
			t.Fatalf("after host write: %+v", b)
		}
	}
	if d.Host().Resident() != 2*units.BlockSize {
		t.Errorf("host resident = %s", units.Format(d.Host().Resident()))
	}

	// Step 2: prefetch to GPU — migration; CPU pages stay pinned.
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	for _, b := range allBlocks(a) {
		if b.Residency != vaspace.GPUResident || !b.GPUMapped {
			t.Fatalf("after prefetch: %+v", b)
		}
		if !b.CPUPinned {
			t.Error("CPU pages must remain pinned while GPU-mapped (§2.2)")
		}
	}
	if got := d.Metrics().Bytes(metrics.H2D, metrics.CausePrefetch); got != uint64(2*units.BlockSize) {
		t.Errorf("prefetch H2D bytes = %d", got)
	}

	// GPU access is now a local hit: no new faults or transfers.
	gpuAccess(t, d, a, Read)
	if batches, _ := d.Metrics().FaultBatches(); batches != 0 {
		t.Errorf("resident access faulted: %d batches", batches)
	}

	// Step 3: host touches the buffer — migrate back, GPU chunks freed.
	cpuAccess(t, d, a, Read, 0)
	for _, b := range allBlocks(a) {
		if b.Residency != vaspace.CPUResident || b.HasChunk() || b.CPUPinned {
			t.Fatalf("after host read-back: %+v", b)
		}
	}
	if got := d.Metrics().TotalBytes(metrics.D2H); got != uint64(2*units.BlockSize) {
		t.Errorf("D2H bytes = %d", got)
	}
	if d.Device().QueueLen(gpudev.QueueFree) != 8 {
		t.Errorf("free queue = %d after migration back", d.Device().QueueLen(gpudev.QueueFree))
	}
	if err := d.Device().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// --- First touch on the GPU: zero-fill, no transfer ---

func TestFirstTouchOnGPUZeroFills(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "tmp", 3*units.BlockSize)
	gpuAccess(t, d, a, Write)
	if d.Metrics().Traffic() != 0 {
		t.Errorf("first GPU touch moved %d bytes over PCIe", d.Metrics().Traffic())
	}
	zb, _ := d.Metrics().ZeroFills()
	if zb != 3 {
		t.Errorf("zero-filled %d blocks, want 3", zb)
	}
	for _, b := range allBlocks(a) {
		if b.Residency != vaspace.GPUResident || d.chunkOf(b).PreparedPages != gpudev.FullyPrepared {
			t.Fatalf("block not prepared: %+v", b)
		}
	}
	batches, blocks := d.Metrics().FaultBatches()
	if batches == 0 || blocks != 3 {
		t.Errorf("fault batches %d / blocks %d", batches, blocks)
	}
}

// --- Figure 2 without discard: the RMT ping-pong ---

func TestFigure2RedundantPingPong(t *testing.T) {
	d := testDriver(t, 4) // 4 usable chunks
	tmp := mustAlloc(t, d, "tmp", 3*units.BlockSize)
	other := mustAlloc(t, d, "other", 3*units.BlockSize)

	// GPU writes short-lived data to tmp.
	gpuAccess(t, d, tmp, Write)
	// Pressure: other needs 3 chunks; only 1 free -> 2 LRU evictions.
	gpuAccess(t, d, other, Write)
	if got := d.Metrics().Bytes(metrics.D2H, metrics.CauseEviction); got != uint64(2*units.BlockSize) {
		t.Fatalf("eviction D2H = %d bytes", got)
	}
	// tmp is re-accessed (overwritten): evicted blocks migrate back.
	gpuAccess(t, d, tmp, Write)
	if got := d.Metrics().Bytes(metrics.H2D, metrics.CauseFault); got == 0 {
		t.Fatal("no fault-driven H2D on re-access")
	}
	// The RMT analyzer must classify the round trip as fully redundant.
	an := trace.Analyze(d.Trace())
	if an.Redundant() != an.Total() || an.Total() == 0 {
		t.Errorf("analysis: %v", an)
	}
}

// --- Figure 2 with discard: transfers skipped in both directions ---

func TestFigure2DiscardEliminatesRMTs(t *testing.T) {
	d := testDriver(t, 4)
	tmp := mustAlloc(t, d, "tmp", 3*units.BlockSize)
	other := mustAlloc(t, d, "other", 3*units.BlockSize)

	gpuAccess(t, d, tmp, Write)
	if _, err := d.Discard(tmp, 0, uint64(tmp.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if d.Device().QueueLen(gpudev.QueueDiscarded) != 3 {
		t.Fatalf("discarded queue = %d", d.Device().QueueLen(gpudev.QueueDiscarded))
	}
	// Pressure: eviction reclaims discarded chunks without transfers.
	gpuAccess(t, d, other, Write)
	if got := d.Metrics().Bytes(metrics.D2H, metrics.CauseEviction); got != 0 {
		t.Fatalf("eviction transferred %d bytes despite discard", got)
	}
	if d.Metrics().Evictions(metrics.EvictDiscarded) == 0 {
		t.Error("no discarded-queue reclamations recorded")
	}
	_, savedD2H := d.Metrics().Saved()
	if savedD2H == 0 {
		t.Error("no saved D2H recorded")
	}
	// Re-accessing tmp allocates fresh zeroed chunks: no H2D at all. (Live
	// "other" data may be LRU-evicted to make room — that D2H is genuine,
	// not an RMT.)
	gpuAccess(t, d, tmp, Write)
	if d.Metrics().TotalBytes(metrics.H2D) != 0 {
		t.Errorf("H2D traffic = %d despite discard", d.Metrics().TotalBytes(metrics.H2D))
	}
}

// --- Eviction priority: unused, then discarded, then LRU (§5.5) ---

func TestEvictionOrder(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	b := mustAlloc(t, d, "b", units.BlockSize)
	c := mustAlloc(t, d, "c", 2*units.BlockSize)

	gpuAccess(t, d, a, Write) // a on used queue
	gpuAccess(t, d, b, Write) // b on used queue
	// Free an allocation to stock the unused queue.
	aux := mustAlloc(t, d, "aux", units.BlockSize)
	gpuAccess(t, d, aux, Write)
	if err := d.FreeManaged(aux); err != nil {
		t.Fatal(err)
	}
	if d.Device().QueueLen(gpudev.QueueUnused) != 1 {
		t.Fatalf("unused queue = %d", d.Device().QueueLen(gpudev.QueueUnused))
	}
	// Discard b to stock the discarded queue.
	if _, err := d.Discard(b, 0, uint64(b.Size()), 0); err != nil {
		t.Fatal(err)
	}

	// c needs two chunks; free queue is empty (4 = a + b + aux-freed + 1
	// free... recount: 4 total; a=1, b=1, aux freed->unused=1, free=1).
	// First chunk: free queue. Second: unused queue. Third (none needed).
	gpuAccess(t, d, c, Write)
	if d.Metrics().Evictions(metrics.EvictUnused) != 1 {
		t.Errorf("unused evictions = %d, want 1", d.Metrics().Evictions(metrics.EvictUnused))
	}
	if d.Metrics().Evictions(metrics.EvictLRU) != 0 {
		t.Errorf("LRU evicted while unused/discarded available")
	}
	// One more block of pressure: now the discarded queue supplies it.
	e := mustAlloc(t, d, "e", units.BlockSize)
	gpuAccess(t, d, e, Write)
	if d.Metrics().Evictions(metrics.EvictDiscarded) != 1 {
		t.Errorf("discarded evictions = %d, want 1", d.Metrics().Evictions(metrics.EvictDiscarded))
	}
	// And further pressure falls back to LRU swap-out.
	f := mustAlloc(t, d, "f", units.BlockSize)
	gpuAccess(t, d, f, Write)
	if d.Metrics().Evictions(metrics.EvictLRU) != 1 {
		t.Errorf("LRU evictions = %d, want 1", d.Metrics().Evictions(metrics.EvictLRU))
	}
	if err := d.Device().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// --- §5.7: access after discard recovers the chunk ---

func TestAccessAfterEagerDiscardRecovers(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	chunk := d.chunkOf(a.Block(0))

	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).GPUMapped {
		t.Error("eager discard left GPU mapping")
	}
	if d.Metrics().Unmaps() != 1 {
		t.Errorf("unmaps = %d", d.Metrics().Unmaps())
	}

	// Re-access before any pressure: same chunk recovered, remapped.
	gpuAccess(t, d, a, Write)
	if d.chunkOf(a.Block(0)) != chunk {
		t.Error("recovery did not reuse the same chunk")
	}
	if !a.Block(0).GPUMapped || a.Block(0).Discarded {
		t.Error("recovery state wrong")
	}
	if chunk.Queue() != gpudev.QueueUsed {
		t.Errorf("recovered chunk on %v", chunk.Queue())
	}
	if d.Metrics().Traffic() != 0 {
		t.Error("recovery should not touch PCIe")
	}
	// Eager recovery pays a map (the one destroyed at discard).
	if d.Metrics().Maps() < 2 { // initial map + recovery remap
		t.Errorf("maps = %d", d.Metrics().Maps())
	}
	// The recovered chunk was fully prepared: no re-zeroing.
	zb, _ := d.Metrics().ZeroFills()
	if zb != 1 { // only the first-touch zero
		t.Errorf("zero fills = %d, want 1", zb)
	}
}

func TestPrefetchAfterLazyDiscardIsCheap(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)

	if _, err := d.DiscardLazy(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if !b.GPUMapped {
		t.Fatal("lazy discard must keep mappings")
	}
	if !d.chunkOf(b).NeedsUnmapOnReclaim {
		t.Error("lazy-discarded chunk must owe an unmap at reclaim")
	}
	if d.Metrics().Unmaps() != 0 {
		t.Error("lazy discard unmapped eagerly")
	}
	// The mandatory prefetch re-sets the dirty bit and recovers the chunk.
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if b.Discarded || d.chunkOf(b).Queue() != gpudev.QueueUsed {
		t.Error("prefetch did not revive lazily discarded block")
	}
	if d.Metrics().Maps() != 1 { // only the initial map; nothing destroyed
		t.Errorf("maps = %d, want 1", d.Metrics().Maps())
	}
	if d.Metrics().Traffic() != 0 {
		t.Error("lazy recovery should not touch PCIe")
	}
}

// --- The lazy-protocol hazard: write without prefetch can lose data ---

func TestLazyDiscardWriteWithoutPrefetchLosesData(t *testing.T) {
	d := testDriver(t, 2)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	a.Data()[0] = 0xAB // functional payload written by the kernel

	if _, err := d.DiscardLazy(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	// Protocol violation: the GPU writes new data without the mandatory
	// prefetch. No fault occurs (mappings intact) and the driver never
	// learns the block is live again.
	gpuAccess(t, d, a, Write)
	a.Data()[0] = 0xCD // the new value
	if !a.Block(0).Discarded {
		t.Fatal("silent access must not clear the discard state")
	}

	// Memory pressure reclaims the chunk without a transfer: the new
	// value is lost — reads observe zeros.
	other := mustAlloc(t, d, "other", 2*units.BlockSize)
	gpuAccess(t, d, other, Write)
	if a.Data()[0] != 0 {
		t.Errorf("data survived reclaim: %#x (hazard not modeled)", a.Data()[0])
	}
	if a.Block(0).Residency != vaspace.Untouched {
		t.Errorf("reclaimed block residency = %v", a.Block(0).Residency)
	}
	// The deferred unmap was paid at reclaim.
	if d.Metrics().Unmaps() == 0 {
		t.Error("deferred unmap not charged")
	}
}

// With the correct protocol (prefetch first), the same sequence keeps data.
func TestLazyDiscardWithPrefetchKeepsData(t *testing.T) {
	d := testDriver(t, 3)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.DiscardLazy(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Write)
	a.Data()[0] = 0xCD
	other := mustAlloc(t, d, "other", 2*units.BlockSize)
	gpuAccess(t, d, other, Write) // pressure
	if a.Data()[0] != 0xCD {
		t.Errorf("data lost despite correct protocol: %#x", a.Data()[0])
	}
}

// --- §4.1 semantics: write-after-discard always visible ---

func TestWriteAfterDiscardVisibleOnCPU(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	a.Data()[7] = 0x11
	if _, err := d.Discard(a, 0, uint8Len(a), 0); err != nil {
		t.Fatal(err)
	}
	// CPU write revives the block.
	cpuAccess(t, d, a, Write, 0)
	a.Data()[7] = 0x22
	if a.Block(0).Discarded {
		t.Fatal("write did not clear discard")
	}
	// Migrate to GPU and back: the value must survive (a real transfer
	// must happen).
	gpuAccess(t, d, a, Read)
	cpuAccess(t, d, a, Read, 0)
	if a.Data()[7] != 0x22 {
		t.Errorf("value = %#x, want 0x22", a.Data()[7])
	}
	if d.Metrics().TotalBytes(metrics.H2D) == 0 || d.Metrics().TotalBytes(metrics.D2H) == 0 {
		t.Error("revived data should migrate for real")
	}
}

func TestDiscardedCPUBlockSkipsH2D(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", 2*units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	// GPU access: driver skips the migration and zero-fills.
	gpuAccess(t, d, a, Write)
	if d.Metrics().TotalBytes(metrics.H2D) != 0 {
		t.Errorf("H2D = %d despite discard", d.Metrics().TotalBytes(metrics.H2D))
	}
	saved, _ := d.Metrics().Saved()
	if saved != uint64(2*units.BlockSize) {
		t.Errorf("saved H2D = %d", saved)
	}
	// Host pages were released.
	if d.Host().Resident() != 0 {
		t.Errorf("host resident = %d", d.Host().Resident())
	}
}

func uint8Len(a *vaspace.Alloc) uint64 { return uint64(a.Size()) }

// --- Discard granularity (§5.4) ---

func TestDiscardIgnoresPartialBlocks(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", 4*units.BlockSize)
	gpuAccess(t, d, a, Write)
	// Discard [1MiB, 5MiB): only block 1 is fully covered.
	if _, err := d.Discard(a, uint64(units.MiB), uint64(4*units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	if d.Device().QueueLen(gpudev.QueueDiscarded) != 1 {
		t.Errorf("discarded queue = %d, want 1", d.Device().QueueLen(gpudev.QueueDiscarded))
	}
	if !a.Block(1).Discarded || a.Block(0).Discarded || a.Block(2).Discarded {
		t.Error("wrong blocks discarded")
	}
	_, covered := d.Metrics().Discards()
	if covered != 1 {
		t.Errorf("covered blocks = %d", covered)
	}
}

func TestDiscardIdempotent(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	for i := 0; i < 3; i++ {
		if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
			t.Fatal(err)
		}
	}
	if d.Device().QueueLen(gpudev.QueueDiscarded) != 1 {
		t.Errorf("discarded queue = %d", d.Device().QueueLen(gpudev.QueueDiscarded))
	}
	if d.Metrics().Unmaps() != 1 {
		t.Errorf("unmaps = %d, want 1 (idempotent)", d.Metrics().Unmaps())
	}
}

func TestDiscardUntouchedIsNoOp(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Discarded {
		t.Error("untouched block marked discarded")
	}
}

// --- FreeManaged ---

func TestFreeManagedReleasesResources(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", 2*units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	gpuAccess(t, d, a, Read)
	if err := d.FreeManaged(a); err != nil {
		t.Fatal(err)
	}
	if d.Host().Resident() != 0 || d.Host().Pinned() != 0 {
		t.Errorf("host not released: resident %d pinned %d",
			d.Host().Resident(), d.Host().Pinned())
	}
	if d.Device().QueueLen(gpudev.QueueUnused) != 2 {
		t.Errorf("unused queue = %d, want 2", d.Device().QueueLen(gpudev.QueueUnused))
	}
	if d.FreeManaged(a) == nil {
		t.Error("double free accepted")
	}
}

// --- No-UVM device buffers ---

func TestMallocDevice(t *testing.T) {
	d := testDriver(t, 4)
	chunks, err := d.MallocDevice(2 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if len(chunks) != 2 || d.DeviceAllocBytes() != 2*units.BlockSize {
		t.Errorf("chunks %d, bytes %d", len(chunks), d.DeviceAllocBytes())
	}
	// Over-allocation fails (the Listing 4 failure mode).
	if _, err := d.MallocDevice(3 * units.BlockSize); err == nil {
		t.Error("oversized cudaMalloc succeeded")
	}
	d.FreeDevice(chunks)
	if d.DeviceAllocBytes() != 0 || d.Device().QueueLen(gpudev.QueueFree) != 4 {
		t.Error("FreeDevice did not restore chunks")
	}
}

func TestOutOfGPUMemory(t *testing.T) {
	d := testDriver(t, 4)
	chunks, err := d.MallocDevice(4 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	defer d.FreeDevice(chunks)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err == nil {
		t.Error("expected out-of-memory error")
	}
}

func TestExplicitCopy(t *testing.T) {
	d := testDriver(t, 4)
	end := d.ExplicitCopy(metrics.H2D, units.BlockSize, 0)
	if end <= 0 {
		t.Error("copy took no time")
	}
	if d.Metrics().Bytes(metrics.H2D, metrics.CauseMemcpy) != uint64(units.BlockSize) {
		t.Error("memcpy traffic not recorded")
	}
	if d.ExplicitCopy(metrics.D2H, 0, 5) != 5 {
		t.Error("zero-byte copy should be free")
	}
}

// --- Coalescing: contiguous prefetch uses few DMA ops ---

func TestPrefetchCoalescesTransfers(t *testing.T) {
	d := testDriver(t, 40)
	a := mustAlloc(t, d, "a", 32*units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	ops := d.Metrics().Ops(metrics.H2D, metrics.CausePrefetch)
	if ops != 1 {
		t.Errorf("prefetch used %d DMA ops, want 1 coalesced op", ops)
	}
	if d.Metrics().Bytes(metrics.H2D, metrics.CausePrefetch) != uint64(32*units.BlockSize) {
		t.Error("coalesced bytes wrong")
	}
}

// Coalescing matters: one big op is faster than per-block ops (Figure 4).
func TestCoalescedFasterThanPerBlock(t *testing.T) {
	link := pcie.Preset(pcie.Gen3)
	one := link.TransferTime(uint64(32 * units.BlockSize))
	var split sim32
	for i := 0; i < 32; i++ {
		split += sim32(link.TransferTime(uint64(units.BlockSize)))
	}
	if sim32(one) >= split {
		t.Errorf("coalesced %v !< split %v", one, split)
	}
}

type sim32 = int64

// --- Thrashing: footprint > capacity with repeated passes ---

func TestLRUThrashing(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", 8*units.BlockSize) // 2x capacity
	cpuAccess(t, d, a, Write, 0)

	// Two sequential passes over the whole buffer: with LRU and footprint
	// 2x capacity, every access in every pass misses.
	for pass := 0; pass < 2; pass++ {
		for _, b := range allBlocks(a) {
			if _, err := d.GPUAccess(a, uint64(b.Index)*uint64(units.BlockSize), uint64(units.BlockSize), Read, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	h2d := d.Metrics().TotalBytes(metrics.H2D)
	if h2d != uint64(16*units.BlockSize) {
		t.Errorf("H2D = %d blocks worth, want 16 (full thrash)",
			h2d/uint64(units.BlockSize))
	}
}

// --- CPU access to eager-discarded CPU-resident block refaults ---

func TestEagerDiscardDestroysCPUMapping(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).CPUMapped {
		t.Fatal("eager discard left CPU mapping")
	}
	cpuAccess(t, d, a, Read, 0)
	if !a.Block(0).CPUMapped {
		t.Error("CPU access did not re-establish mapping")
	}
	// A read does not revive the block (§4.1: reads are unstable until a
	// write).
	if !a.Block(0).Discarded {
		t.Error("read revived discarded block")
	}
}
