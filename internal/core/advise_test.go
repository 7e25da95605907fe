package core

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

func TestAdviceStrings(t *testing.T) {
	for _, a := range []Advice{AdviseSetPreferredCPU, AdviseSetPreferredGPU,
		AdviseUnsetPreferred, AdviseSetReadMostly, AdviseUnsetReadMostly} {
		if a.String() == "" {
			t.Errorf("advice %d has empty name", int(a))
		}
	}
	if Advice(99).String() == "" {
		t.Error("unknown advice should stringify")
	}
}

func TestMemAdviseBadRange(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.MemAdvise(a, 0, uint64(2*units.BlockSize), AdviseSetReadMostly, 0); err == nil {
		t.Error("out-of-range advice accepted")
	}
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), Advice(42), 0); err == nil {
		t.Error("unknown advice accepted")
	}
}

// SetPreferredLocation(CPU): GPU accesses map host memory instead of
// migrating — even on a non-coherent PCIe link (zero-copy sysmem).
func TestPreferredCPUServesRemotely(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetPreferredCPU, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		gpuAccess(t, d, a, Read)
		if a.Block(0).Residency != vaspace.CPUResident {
			t.Fatalf("access %d migrated a PreferCPU block", i)
		}
	}
	if got := d.Metrics().Bytes(metrics.H2D, metrics.CauseRemote); got != uint64(5*units.BlockSize) {
		t.Errorf("remote bytes = %d", got)
	}
	// Unset: the next access migrates normally.
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseUnsetPreferred, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Read)
	if a.Block(0).Residency != vaspace.GPUResident {
		t.Error("unset preference did not restore migration")
	}
}

// A prefetch is an explicit directive: it migrates even a PreferCPU block.
func TestPrefetchOverridesPreferredCPU(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetPreferredCPU, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Residency != vaspace.GPUResident {
		t.Error("prefetch should migrate despite PreferCPU")
	}
}

// SetPreferredLocation(GPU): the eviction process passes over the block
// while other victims exist.
func TestPreferredGPUSkipsEviction(t *testing.T) {
	d := testDriver(t, 4)
	pinned := mustAlloc(t, d, "pinned", units.BlockSize)
	victim := mustAlloc(t, d, "victim", units.BlockSize)
	if _, err := d.MemAdvise(pinned, 0, uint64(pinned.Size()), AdviseSetPreferredGPU, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, pinned, Write) // pinned is the LRU oldest
	gpuAccess(t, d, victim, Write)
	// Pressure: 3 more blocks needed; only 2 free -> one LRU eviction.
	big := mustAlloc(t, d, "big", 3*units.BlockSize)
	gpuAccess(t, d, big, Write)
	if pinned.Block(0).Residency != vaspace.GPUResident {
		t.Error("PreferGPU block evicted while another victim existed")
	}
	if victim.Block(0).Residency != vaspace.CPUResident {
		t.Error("expected the non-preferred block to be the victim")
	}
}

// The hint is advice, not a guarantee: if everything is preferred, the LRU
// victim is evicted anyway.
func TestPreferredGPUFallback(t *testing.T) {
	d := testDriver(t, 2)
	a := mustAlloc(t, d, "a", 2*units.BlockSize)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetPreferredGPU, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Write)
	b := mustAlloc(t, d, "b", units.BlockSize)
	gpuAccess(t, d, b, Write) // must evict something
	if b.Block(0).Residency != vaspace.GPUResident {
		t.Error("allocation failed despite evictable (preferred) blocks")
	}
}

// SetReadMostly: a GPU read duplicates the block; subsequent host reads
// are local (no D2H), and eviction of the duplicate moves nothing.
func TestReadMostlyDuplication(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "weights", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Read) // duplicates H2D
	b := a.Block(0)
	if b.Residency != vaspace.GPUResident || !b.CPUHasPages || b.CPUStale || !b.CPUMapped {
		t.Fatalf("not duplicated: %+v", b)
	}
	h2dAfterDup := d.Metrics().TotalBytes(metrics.H2D)

	// Host read: local, no new traffic.
	cpuAccess(t, d, a, Read, 0)
	if d.Metrics().TotalBytes(metrics.D2H) != 0 {
		t.Error("host read of a duplicate transferred D2H")
	}
	if b.Residency != vaspace.GPUResident {
		t.Error("host read collapsed the duplicate")
	}

	// Pressure: evicting the duplicate costs no transfer.
	big := mustAlloc(t, d, "big", 4*units.BlockSize)
	gpuAccess(t, d, big, Write)
	if b.Residency != vaspace.CPUResident {
		t.Fatal("duplicate not dropped under pressure")
	}
	if d.Metrics().TotalBytes(metrics.D2H) != 0 {
		t.Errorf("evicting a duplicate transferred %d bytes", d.Metrics().TotalBytes(metrics.D2H))
	}
	if d.Metrics().TotalBytes(metrics.H2D) != h2dAfterDup {
		t.Error("unexpected extra H2D")
	}
}

// A CPU read of a GPU-resident read-mostly block duplicates D2H and keeps
// the GPU copy.
func TestReadMostlyDuplicatesTowardHost(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write) // born on GPU
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	cpuAccess(t, d, a, Read, 0)
	b := a.Block(0)
	if b.Residency != vaspace.GPUResident || !b.CPUHasPages || b.CPUStale {
		t.Fatalf("not duplicated toward host: %+v", b)
	}
	if d.Metrics().TotalBytes(metrics.D2H) != uint64(units.BlockSize) {
		t.Error("duplication D2H missing")
	}
	// Another GPU access stays a local hit.
	faultsBefore, _ := d.Metrics().FaultBatches()
	gpuAccess(t, d, a, Read)
	faultsAfter, _ := d.Metrics().FaultBatches()
	if faultsAfter != faultsBefore {
		t.Error("GPU re-access of duplicate faulted")
	}
}

// Writes collapse duplication: a GPU write drops the host copy, a host
// write drops the GPU copy.
func TestWritesCollapseDuplicate(t *testing.T) {
	// GPU write collapses host side.
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Read)  // duplicate
	gpuAccess(t, d, a, Write) // collapse
	b := a.Block(0)
	if b.CPUHasPages || b.Residency != vaspace.GPUResident {
		t.Errorf("GPU write did not collapse host copy: %+v", b)
	}
	if d.Host().Resident() != 0 {
		t.Errorf("host pages leaked: %d", d.Host().Resident())
	}

	// Host write collapses GPU side.
	d2 := testDriver(t, 4)
	a2 := mustAlloc(t, d2, "a", units.BlockSize)
	cpuAccess(t, d2, a2, Write, 0)
	if _, err := d2.MemAdvise(a2, 0, uint64(a2.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d2, a2, Read)     // duplicate
	cpuAccess(t, d2, a2, Write, 0) // collapse
	b2 := a2.Block(0)
	if b2.Residency != vaspace.CPUResident || b2.HasChunk() {
		t.Errorf("host write did not collapse GPU copy: %+v", b2)
	}
	if d2.Device().QueueLen(gpudev.QueueFree) != 4 {
		t.Error("GPU chunk not freed on collapse")
	}
}

// Unsetting read-mostly collapses any existing duplicate toward the GPU.
func TestUnsetReadMostlyCollapses(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Read)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseUnsetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.ReadMostly || b.CPUHasPages {
		t.Errorf("unset did not collapse: %+v", b)
	}
}

// Discard composes with read-mostly: discarding a duplicated block kills
// both copies' contents.
func TestDiscardOnDuplicatedBlock(t *testing.T) {
	d := testDriver(t, 4)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.MemAdvise(a, 0, uint64(a.Size()), AdviseSetReadMostly, 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Read)
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if !a.Block(0).Discarded {
		t.Fatal("duplicated block not discarded")
	}
	// Pressure reclaims the chunk without a transfer.
	big := mustAlloc(t, d, "big", 4*units.BlockSize)
	gpuAccess(t, d, big, Write)
	if d.Metrics().TotalBytes(metrics.D2H) != 0 {
		t.Error("discarded duplicate transferred on reclaim")
	}
}
