package core

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/units"
)

// A lazy discard that kills a whole block through accumulated partial
// discards must stay lazy: mappings intact, unmap deferred to reclamation.
// The bug was discardPartialEdges hard-coding lazy=false, silently turning
// DiscardLazy into an eager discard on the edge blocks.
func TestPartialDiscardKeepsLazyFlag(t *testing.T) {
	d := driverWithParams(t, 4, func(p *Params) { p.AllowPartialDiscard = true })
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)

	// Two lazy half-block discards accumulate to a whole dead block.
	if _, err := d.DiscardLazy(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DiscardLazy(a, uint64(units.MiB), uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if !b.Discarded {
		t.Fatal("fully covered block not discarded")
	}
	if !b.LazyDiscard {
		t.Error("lazy discard lost its lazy flag on the partial-edge path")
	}
	if !b.GPUMapped {
		t.Error("lazy discard destroyed the GPU mapping eagerly")
	}
	if !d.chunkOf(b).NeedsUnmapOnReclaim {
		t.Error("deferred unmap not recorded on the chunk")
	}

	// Eager partial discards must still be eager.
	a2 := mustAlloc(t, d, "a2", units.BlockSize)
	gpuAccess(t, d, a2, Write)
	if _, err := d.Discard(a2, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Discard(a2, uint64(units.MiB), uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	b2 := a2.Block(0)
	if !b2.Discarded || b2.LazyDiscard {
		t.Errorf("eager partial discard: Discarded=%v LazyDiscard=%v, want true/false",
			b2.Discarded, b2.LazyDiscard)
	}
	if b2.GPUMapped || d.chunkOf(b2).NeedsUnmapOnReclaim {
		t.Error("eager discard should unmap immediately")
	}
}

// Double-freeing a device buffer (or freeing chunks that never came from
// MallocDevice) must not corrupt the free queue or underflow the byte
// counter.
func TestFreeDeviceDoubleFree(t *testing.T) {
	d := testDriver(t, 8)
	dev := d.Device()
	before := dev.QueueLen(gpudev.QueueFree)

	chunks, err := d.MallocDevice(2 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.DeviceAllocBytes(); got != 2*units.BlockSize {
		t.Fatalf("alloc bytes = %s", units.Format(got))
	}

	d.FreeDevice(chunks)
	if got := d.DeviceAllocBytes(); got != 0 {
		t.Errorf("after free: alloc bytes = %s, want 0", units.Format(got))
	}
	if got := dev.QueueLen(gpudev.QueueFree); got != before {
		t.Errorf("free queue = %d, want %d", got, before)
	}

	// Second free of the same chunks is a no-op.
	d.FreeDevice(chunks)
	if got := d.DeviceAllocBytes(); got != 0 {
		t.Errorf("after double free: alloc bytes = %s, want 0", units.Format(got))
	}
	if got := dev.QueueLen(gpudev.QueueFree); got != before {
		t.Errorf("double free grew the free queue: %d, want %d", got, before)
	}
	if err := dev.CheckInvariants(); err != nil {
		t.Errorf("queue invariants broken after double free: %v", err)
	}

	// Chunks still tracked by a different allocation are unaffected by a
	// free of already-freed ones.
	keep, err := d.MallocDevice(units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	d.FreeDevice(chunks) // stale handles again
	if got := d.DeviceAllocBytes(); got != units.BlockSize {
		t.Errorf("stale free touched live allocation: %s", units.Format(got))
	}
	d.FreeDevice(keep)
	if got := d.DeviceAllocBytes(); got != 0 {
		t.Errorf("final alloc bytes = %s, want 0", units.Format(got))
	}
}

// Evicting a partially discarded block moves only the live pages D2H; the
// dead pages that never cross the link are discard savings and must be
// credited to the §5.4 ablation's "saved by discard" metric.
func TestEvictPartialBlockCreditsSavedD2H(t *testing.T) {
	d := driverWithParams(t, 2, func(p *Params) { p.AllowPartialDiscard = true })
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)

	// Kill half the block; the other half stays live.
	if _, err := d.Discard(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.Discarded || int(b.LivePages) != int(units.MiB/units.PageSize) {
		t.Fatalf("setup: Discarded=%v LivePages=%d", b.Discarded, b.LivePages)
	}

	// Force an LRU eviction of the split block.
	other := mustAlloc(t, d, "other", 2*units.BlockSize)
	gpuAccess(t, d, other, Write)

	moved := d.Metrics().Bytes(metrics.D2H, metrics.CauseEviction)
	if moved != uint64(units.MiB) {
		t.Fatalf("eviction moved %d bytes, want %d", moved, units.MiB)
	}
	_, savedD2H := d.Metrics().Saved()
	if savedD2H != uint64(units.MiB) {
		t.Errorf("saved D2H = %d, want %d (the dead half avoided by discard)",
			savedD2H, units.MiB)
	}
}

// Freeing an allocation with a lazily discarded, still-resident block tears
// down the VA range and all its mappings — the chunk's deferred unmap
// (§5.6) no longer applies. The bug was FreeManaged pushing the chunk to
// the unused queue with NeedsUnmapOnReclaim still set, which both tripped
// the sanitizer (the marker is only legal on a discarded-queue chunk of a
// lazy block) and would have charged a phantom unmap at reclaim.
func TestFreeManagedClearsDeferredUnmap(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.DiscardLazy(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	c := d.chunkOf(a.Block(0))
	if !c.NeedsUnmapOnReclaim {
		t.Fatal("setup: lazy discard did not set the deferred-unmap marker")
	}

	if err := d.FreeManaged(a); err != nil {
		t.Fatal(err)
	}
	if got := c.Queue(); got != gpudev.QueueUnused {
		t.Fatalf("freed chunk on %v queue, want unused", got)
	}
	if c.Owner != 0 {
		t.Error("freed chunk still has an owner")
	}
	if c.NeedsUnmapOnReclaim {
		t.Error("freed chunk carries NeedsUnmapOnReclaim into the unused queue")
	}
	if err := d.CheckNow(); err != nil {
		t.Errorf("state after free: %v", err)
	}
}

// Splitting a 2 MiB mapping for a partial discard costs one unmap/remap
// round trip — once. The bug charged it on every partial discard of the
// same block, even when LivePages showed the block was already at 4 KiB
// granularity.
func TestPartialDiscardSplitChargedOnce(t *testing.T) {
	d := driverWithParams(t, 4, func(p *Params) { p.AllowPartialDiscard = true })
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	quarter := uint64(units.BlockSize) / 4

	// First partial discard splits the mapping: one unmap + one remap.
	if _, err := d.Discard(a, 0, quarter, 0); err != nil {
		t.Fatal(err)
	}
	unmaps, maps := d.Metrics().Unmaps(), d.Metrics().Maps()
	if unmaps != 1 {
		t.Fatalf("first partial discard charged %d unmaps, want 1", unmaps)
	}

	// Further partial discards shrink the live set with no more PTE work.
	if _, err := d.Discard(a, quarter, quarter, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().Unmaps(); got != unmaps {
		t.Errorf("second partial discard re-charged the split: %d unmaps, want %d", got, unmaps)
	}
	if got := d.Metrics().Maps(); got != maps {
		t.Errorf("second partial discard re-charged the remap: %d maps, want %d", got, maps)
	}
	b := a.Block(0)
	if want := int(uint64(units.BlockSize)/2) / int(units.PageSize); int(b.LivePages) != want {
		t.Errorf("LivePages = %d, want %d", b.LivePages, want)
	}

	// The discard that kills the rest goes through discardBlock, whose
	// eager unmap is separate from (and in addition to) the split cost.
	if _, err := d.Discard(a, 2*quarter, 2*quarter, 0); err != nil {
		t.Fatal(err)
	}
	if !b.Discarded {
		t.Fatal("fully covered block not discarded")
	}
	if got := d.Metrics().Unmaps(); got != unmaps+1 {
		t.Errorf("final eager discard: %d unmaps, want %d", got, unmaps+1)
	}
}
