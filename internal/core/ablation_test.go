package core

import (
	"testing"
	"testing/quick"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

func driverWithParams(t *testing.T, blocks int, mutate func(*Params)) *Driver {
	t.Helper()
	p := DefaultParams()
	if mutate != nil {
		mutate(&p)
	}
	d, err := New(Config{
		GPU:    gpudev.Generic(units.Size(blocks) * units.BlockSize),
		Params: &p,
		Trace:  trace.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestParamsValidation(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultParams()
	bad.EvictionOrder = nil
	if bad.Validate() == nil {
		t.Error("empty eviction order accepted")
	}
	bad = DefaultParams()
	bad.EvictionOrder = []metrics.EvictSource{metrics.EvictFree, metrics.EvictLRU}
	if bad.Validate() == nil {
		t.Error("explicit free queue accepted")
	}
	bad = DefaultParams()
	bad.EvictionOrder = []metrics.EvictSource{metrics.EvictLRU, metrics.EvictLRU}
	if bad.Validate() == nil {
		t.Error("duplicate source accepted")
	}
	bad = DefaultParams()
	bad.EvictionOrder = []metrics.EvictSource{metrics.EvictUnused}
	if bad.Validate() == nil {
		t.Error("order without LRU accepted")
	}
	bad = DefaultParams()
	bad.FaultBatchBlocks = 0
	if bad.Validate() == nil {
		t.Error("zero batch size accepted")
	}
}

// §5.6 ablation: immediate reclamation forfeits cheap recovery — the
// re-access must re-zero a fresh chunk instead of recovering the old one.
func TestImmediateReclaimAblation(t *testing.T) {
	d := driverWithParams(t, 8, func(p *Params) { p.ImmediateReclaim = true })
	a, _ := d.AllocManaged("a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	chunk := d.chunkOf(a.Block(0))
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Residency != vaspace.Untouched {
		t.Fatal("immediate reclaim did not reset the block")
	}
	if chunk.Queue() != gpudev.QueueFree {
		t.Errorf("chunk on %v, want free", chunk.Queue())
	}
	if d.Device().QueueLen(gpudev.QueueDiscarded) != 0 {
		t.Error("discarded queue should be empty")
	}
	// Re-access zero-fills a fresh chunk (cannot recover).
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	zb, _ := d.Metrics().ZeroFills()
	if zb != 2 { // first touch + re-populate
		t.Errorf("zero fills = %d, want 2", zb)
	}
}

// §5.7 ablation: without prepared tracking, recovery always re-zeroes.
func TestPreparedTrackingAblation(t *testing.T) {
	run := func(tracking bool) int64 {
		d := driverWithParams(t, 8, func(p *Params) { p.PreparedTracking = tracking })
		a, _ := d.AllocManaged("a", units.BlockSize)
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
			t.Fatal(err)
		}
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
			t.Fatal(err)
		}
		zb, _ := d.Metrics().ZeroFills()
		return zb
	}
	if with, without := run(true), run(false); with != 1 || without != 2 {
		t.Errorf("zero fills with tracking = %d (want 1), without = %d (want 2)",
			with, without)
	}
}

// §5.4 ablation: partial discards split blocks; the live remainder then
// migrates page-wise, moving fewer bytes but paying per-page latency.
func TestPartialDiscardAblation(t *testing.T) {
	d := driverWithParams(t, 2, func(p *Params) { p.AllowPartialDiscard = true })
	a, _ := d.AllocManaged("a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	// Discard half the block.
	if _, err := d.Discard(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.Discarded {
		t.Fatal("half-covered block fully discarded")
	}
	wantLive := int(units.MiB / units.PageSize)
	if int(b.LivePages) != wantLive {
		t.Fatalf("live pages = %d, want %d", b.LivePages, wantLive)
	}
	// Eviction now moves only the live half…
	other, _ := d.AllocManaged("other", 2*units.BlockSize)
	if _, err := d.GPUAccess(other, 0, uint64(other.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().Bytes(metrics.D2H, metrics.CauseEviction); got != uint64(units.MiB) {
		t.Errorf("eviction moved %d bytes, want %d", got, units.MiB)
	}
	// …but at 4 KiB DMA granularity the per-byte cost is much worse than
	// one 2 MiB op: per-page latency dominates.
	_, perPageTime := d.migrationCost(b)
	full := d.Link().TransferTime(uint64(units.BlockSize))
	if perPageTime <= full {
		t.Errorf("page-wise half-block (%v) should cost more than one full-block DMA (%v)",
			perPageTime, full)
	}
}

// Discarding the two halves of a block separately kills it entirely.
func TestPartialDiscardAccumulates(t *testing.T) {
	d := driverWithParams(t, 4, func(p *Params) { p.AllowPartialDiscard = true })
	a, _ := d.AllocManaged("a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Discard(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Discard(a, uint64(units.MiB), uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	if !a.Block(0).Discarded {
		t.Error("fully covered (across two calls) block not discarded")
	}
}

// Default (paper) behaviour: partial ranges are ignored entirely.
func TestPartialDiscardIgnoredByDefault(t *testing.T) {
	d := testDriver(t, 2)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.Discard(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.Discarded || b.LivePages != 0 {
		t.Error("partial discard had an effect despite default params")
	}
}

// Eviction-order ablation: reclaiming discarded chunks before unused ones
// changes which source supplies chunks.
func TestEvictionOrderAblation(t *testing.T) {
	d := driverWithParams(t, 3, func(p *Params) {
		p.EvictionOrder = []metrics.EvictSource{
			metrics.EvictDiscarded, metrics.EvictUnused, metrics.EvictLRU,
		}
	})
	a, _ := d.AllocManaged("a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	// Stock the unused queue too.
	aux, _ := d.AllocManaged("aux", units.BlockSize)
	if _, err := d.GPUAccess(aux, 0, uint64(aux.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.FreeManaged(aux); err != nil {
		t.Fatal(err)
	}
	// One block of pressure: free queue has 1... consume it first.
	x, _ := d.AllocManaged("x", units.BlockSize)
	if _, err := d.GPUAccess(x, 0, uint64(x.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	y, _ := d.AllocManaged("y", units.BlockSize)
	if _, err := d.GPUAccess(y, 0, uint64(y.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	// With discarded-first order, the discarded chunk went before unused.
	if d.Metrics().Evictions(metrics.EvictDiscarded) != 1 {
		t.Errorf("discarded evictions = %d, want 1", d.Metrics().Evictions(metrics.EvictDiscarded))
	}
	if d.Metrics().Evictions(metrics.EvictUnused) != 0 {
		t.Errorf("unused evictions = %d, want 0", d.Metrics().Evictions(metrics.EvictUnused))
	}
}

// §4.1 semantics, property-tested: after an arbitrary interleaving of
// writes, discards, accesses, and pressure, a read observes either zeros or
// a previously written value — and always the latest value if a write
// happened after the last discard.
func TestDiscardSemanticsProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		d, err := New(Config{GPU: gpudev.Generic(3 * units.BlockSize)})
		if err != nil {
			return false
		}
		a, err := d.AllocManaged("a", units.BlockSize)
		if err != nil {
			return false
		}
		pressure, err := d.AllocManaged("p", 3*units.BlockSize)
		if err != nil {
			return false
		}
		var wrote []byte           // all values ever written
		var lastWrite byte         // most recent write
		var writeAfterDiscard bool // a write happened after the last discard
		var everWrote bool
		for _, op := range ops {
			switch op % 6 {
			case 0: // CPU write
				cpuAccess(t, d, a, Write, 0)
				lastWrite = op | 1 // non-zero
				a.Data()[0] = lastWrite
				wrote = append(wrote, lastWrite)
				writeAfterDiscard, everWrote = true, true
			case 1: // GPU write
				if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
					return false
				}
				// Honor the lazy protocol: only count the write as live if
				// the driver observed it (block not silently discarded).
				if !a.Block(0).Discarded {
					lastWrite = op | 1
					a.Data()[0] = lastWrite
					wrote = append(wrote, lastWrite)
					writeAfterDiscard, everWrote = true, true
				}
			case 2: // eager discard
				if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
					return false
				}
				if a.Block(0).Discarded || a.Block(0).Residency == vaspace.Untouched {
					writeAfterDiscard = false
				}
			case 3: // lazy discard
				if _, err := d.DiscardLazy(a, 0, uint64(a.Size()), 0); err != nil {
					return false
				}
				if a.Block(0).Discarded || a.Block(0).Residency == vaspace.Untouched {
					writeAfterDiscard = false
				}
			case 4: // memory pressure
				if _, err := d.GPUAccess(pressure, 0, uint64(pressure.Size()), Write, 0); err != nil {
					return false
				}
			case 5: // prefetch (revives lazy discards)
				if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
					return false
				}
				if a.Block(0).Residency == vaspace.GPUResident && !a.Block(0).Discarded &&
					everWrote && a.Data()[0] == lastWrite {
					// value preserved; nothing to update
					_ = everWrote
				}
			}
			// Invariant check after every op: the observable value is
			// zero or something previously written.
			got := a.Data()[0]
			if got != 0 {
				found := false
				for _, w := range wrote {
					if w == got {
						found = true
						break
					}
				}
				if !found {
					return false
				}
			}
			// If a write happened after the last discard, it must still
			// be visible.
			if writeAfterDiscard && got != lastWrite {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// §2.3 extension: with a cache-coherent link and a positive access-counter
// threshold, GPU accesses to CPU-resident data are served remotely until
// the counter promotes the block.
func TestCoherentRemoteAccessMode(t *testing.T) {
	p := DefaultParams()
	p.RemoteAccessMigrateThreshold = 2
	d, err := New(Config{
		GPU:    gpudev.Generic(8 * units.BlockSize),
		Link:   pcie.Preset(pcie.GenNVLink),
		Params: &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.AllocManaged("a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)

	// First two accesses: remote, no migration, no faults.
	for i := 0; i < 2; i++ {
		if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
			t.Fatal(err)
		}
		if a.Block(0).Residency != vaspace.CPUResident {
			t.Fatalf("access %d migrated prematurely", i)
		}
	}
	if got := d.Metrics().Bytes(metrics.H2D, metrics.CauseRemote); got != uint64(2*units.BlockSize) {
		t.Errorf("remote bytes = %d", got)
	}
	if batches, _ := d.Metrics().FaultBatches(); batches != 0 {
		t.Errorf("remote accesses faulted: %d batches", batches)
	}
	// Third access crosses the threshold: the block migrates.
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Residency != vaspace.GPUResident {
		t.Error("access counter did not promote the block")
	}
	if d.Metrics().Bytes(metrics.H2D, metrics.CauseFault) != uint64(units.BlockSize) {
		t.Error("promotion migration missing")
	}
	if a.Block(0).RemoteAccesses != 0 {
		t.Error("counter not reset after migration")
	}
}

// Remote mode never activates on a non-coherent link, regardless of the
// threshold.
func TestRemoteModeRequiresCoherentLink(t *testing.T) {
	p := DefaultParams()
	p.RemoteAccessMigrateThreshold = 4
	d, err := New(Config{
		GPU:    gpudev.Generic(8 * units.BlockSize),
		Link:   pcie.Preset(pcie.Gen4),
		Params: &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.AllocManaged("a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Residency != vaspace.GPUResident {
		t.Error("PCIe access should migrate immediately")
	}
	if d.Metrics().Bytes(metrics.H2D, metrics.CauseRemote) != 0 {
		t.Error("remote traffic on a non-coherent link")
	}
}

// Prefetches migrate even in remote mode — they are explicit placement
// directives.
func TestPrefetchMigratesInRemoteMode(t *testing.T) {
	p := DefaultParams()
	p.RemoteAccessMigrateThreshold = 100
	d, err := New(Config{
		GPU:    gpudev.Generic(8 * units.BlockSize),
		Link:   pcie.Preset(pcie.GenNVLink),
		Params: &p,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := d.AllocManaged("a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)
	if _, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	if a.Block(0).Residency != vaspace.GPUResident {
		t.Error("prefetch did not migrate in remote mode")
	}
}

func TestNegativeRemoteThresholdRejected(t *testing.T) {
	p := DefaultParams()
	p.RemoteAccessMigrateThreshold = -1
	if p.Validate() == nil {
		t.Error("negative threshold accepted")
	}
}

// §5.4: split mappings also cost translation time on every later access —
// the TLB-coverage argument for ignoring partial discards.
func TestSplitMappingTLBPenalty(t *testing.T) {
	d := driverWithParams(t, 4, func(p *Params) { p.AllowPartialDiscard = true })
	a, _ := d.AllocManaged("a", units.BlockSize)
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	// Baseline: resident-hit accesses are free.
	before, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if before != 1000 {
		t.Fatalf("whole-block hit cost %v", before-1000)
	}
	// Split the mapping with a partial discard.
	if _, err := d.Discard(a, 0, uint64(units.MiB), 0); err != nil {
		t.Fatal(err)
	}
	after, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if after <= 2000 {
		t.Error("split-block access should pay the TLB penalty")
	}
	if got := after - 2000; got != splitTLBPenalty {
		t.Errorf("penalty = %v, want %v", got, splitTLBPenalty)
	}
}
