package core

import (
	"strings"
	"testing"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/hostmem"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// newFaultDriver builds a small single-GPU driver with the given fault
// schedule attached.
func newFaultDriver(t *testing.T, fcfg *faultinject.Config, tweak func(*Params)) *Driver {
	t.Helper()
	params := DefaultParams()
	if tweak != nil {
		tweak(&params)
	}
	d, err := New(Config{
		GPU:    gpudev.Generic(8 * units.BlockSize),
		Host:   hostmem.New(units.GiB),
		Params: &params,
		Faults: fcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMigrateRetrySucceeds exercises the bounded-retry path: with a
// certain-failure schedule the H2D migration degrades; every injected
// failure must be matched by a recorded retry, and the block must end up
// Degraded and host-resident rather than silently dropped.
func TestMigrateRetryDegradesAfterBudget(t *testing.T) {
	d := newFaultDriver(t, &faultinject.Config{Seed: 7, DMAFailProb: 1}, func(p *Params) {
		p.MaxMigrateRetries = 3
	})
	a, err := d.AllocManaged("x", units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	now := cpuAccess(t, d, a, Write, 0)
	done, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, now)
	if err != nil {
		t.Fatal(err)
	}
	if done <= now {
		t.Fatalf("degraded access took no time (%v -> %v)", now, done)
	}
	b := a.Block(0)
	if !b.Degraded || b.Residency != vaspace.CPUResident {
		t.Fatalf("after exhausted retries: Degraded=%v residency=%v, want degraded CPU-resident",
			b.Degraded, b.Residency)
	}
	// 1 initial failure + 3 retries, all failed.
	st := d.Injector().Stats()
	if st.DMAFailures != 4 || d.Metrics().MigrateRetries() != 4 {
		t.Fatalf("injected %d failures, recorded %d retries, want 4 and 4",
			st.DMAFailures, d.Metrics().MigrateRetries())
	}
	if blocks, bytes := d.Metrics().Degraded(); blocks != 1 || bytes != uint64(units.BlockSize) {
		t.Fatalf("degraded accounting = (%d, %d), want (1, %d)", blocks, bytes, units.BlockSize)
	}
	// A faulting re-access goes remote without re-attempting the migration.
	preRetries := d.Metrics().MigrateRetries()
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, done); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().MigrateRetries(); got != preRetries {
		t.Fatalf("faulting access to a degraded block re-attempted migration (%d -> %d retries)",
			preRetries, got)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchClearsDegraded: an explicit prefetch re-attempts the real
// migration; with the schedule now quiet it succeeds and clears Degraded.
func TestPrefetchClearsDegraded(t *testing.T) {
	d := newFaultDriver(t, &faultinject.Config{Seed: 7, DMAFailProb: 1}, func(p *Params) {
		p.MaxMigrateRetries = 0
	})
	a, err := d.AllocManaged("x", units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	now := cpuAccess(t, d, a, Write, 0)
	now, err = d.GPUAccess(a, 0, uint64(a.Size()), Read, now)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Block(0).Degraded {
		t.Fatal("block did not degrade under certain failure")
	}
	// Silence the injector so the prefetch's attempt succeeds.
	d.fi = nil
	done, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), now)
	if err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.Degraded || b.Residency != vaspace.GPUResident {
		t.Fatalf("after successful prefetch: Degraded=%v residency=%v, want live GPU-resident",
			b.Degraded, b.Residency)
	}
	_ = done
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestUnmapRetryAccounting: every injected unmap failure is answered by a
// reissued shootdown, 1:1 in the metrics.
func TestUnmapRetryAccounting(t *testing.T) {
	d := newFaultDriver(t, &faultinject.Config{Seed: 11, UnmapFailProb: 0.5}, nil)
	a, err := d.AllocManaged("x", 4*units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	now, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if now, err = d.Discard(a, 0, uint64(a.Size()), now); err != nil {
			t.Fatal(err)
		}
		if now, err = d.PrefetchToGPU(a, 0, uint64(a.Size()), now); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Injector().Stats()
	if st.UnmapFailures == 0 {
		t.Fatal("schedule injected no unmap failures; test is vacuous")
	}
	if got := d.Metrics().UnmapRetries(); got != st.UnmapFailures {
		t.Fatalf("injected %d unmap failures but recorded %d reissues", st.UnmapFailures, got)
	}
}

// TestFaultBufferOverflowReplays: a fault batch larger than the buffer
// capacity forces replay rounds.
func TestFaultBufferOverflowReplays(t *testing.T) {
	d := newFaultDriver(t, &faultinject.Config{Seed: 1, FaultBufferBlocks: 2}, nil)
	a, err := d.AllocManaged("x", 6*units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
	// 6 faulted blocks over a 2-block buffer: (6-1)/2 = 2 replay rounds.
	if got := d.Metrics().FaultReplays(); got != 2 {
		t.Fatalf("FaultReplays = %d, want 2", got)
	}
	if st := d.Injector().Stats(); st.Overflows != 1 {
		t.Fatalf("Overflows = %d, want 1", st.Overflows)
	}
}

// TestPoisonQuarantine: with a valid host copy the block survives the ECC
// hit; the chunk is retired and capacity shrinks.
func TestPoisonQuarantine(t *testing.T) {
	d := newFaultDriver(t, nil, nil)
	a, err := d.AllocManaged("x", units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	now := cpuAccess(t, d, a, Write, 0)
	now, err = d.GPUAccess(a, 0, uint64(a.Size()), Read, now)
	if err != nil {
		t.Fatal(err)
	}
	// Attach a certain-poison injector only now, so the setup accesses
	// above run clean.
	fi, err := faultinject.New(faultinject.Config{Seed: 3, PoisonProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.fi = fi
	cpuAccess(t, d, a, Read, now)
	b := a.Block(0)
	// The block was GPU-resident with a clean pinned host copy (read-only
	// access after migration), so the data survives on the host... unless
	// the GPU copy was dirtied. GPUAccess above was a Read, so the host
	// copy is stale only if the migration marked it so.
	if d.Device().QueueLen(gpudev.QueuePoisoned) != 1 {
		t.Fatalf("poisoned queue has %d chunks, want 1", d.Device().QueueLen(gpudev.QueuePoisoned))
	}
	if d.Device().UsableChunks() != 7 {
		t.Fatalf("UsableChunks = %d after poison, want 7", d.Device().UsableChunks())
	}
	if b.HasChunk() || b.Residency == vaspace.GPUResident {
		t.Fatalf("poisoned block still GPU-resident: %+v", b)
	}
	chunks, recovered, lost := d.Metrics().Poisoned()
	if chunks != 1 || recovered+lost != uint64(units.BlockSize) {
		t.Fatalf("poison accounting = (%d, %d, %d)", chunks, recovered, lost)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonDataLost: a dirty GPU-only block hit by poison loses its data:
// the block returns to Untouched, the loss is accounted, and reads observe
// zeros.
func TestPoisonDataLost(t *testing.T) {
	d := newFaultDriver(t, nil, nil)
	a, err := d.AllocManaged("x", units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	data := a.Data()
	for i := range data {
		data[i] = 0xAB
	}
	now, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := faultinject.New(faultinject.Config{Seed: 3, PoisonProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.fi = fi
	cpuAccess(t, d, a, Read, now)
	b := a.Block(0)
	// First touch on the GPU: no host copy ever existed, so the poison
	// loses the data. maybePoison runs before the CPU access services the
	// block, so the access itself then repopulates zeros.
	if _, _, lost := d.Metrics().Poisoned(); lost != uint64(units.BlockSize) {
		t.Fatalf("lost bytes = %d, want %d", lost, units.BlockSize)
	}
	for i, v := range data {
		if v != 0 {
			t.Fatalf("byte %d = %#x after poison loss, want 0", i, v)
		}
	}
	_ = b
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestExplicitCopyCountsBytesOnce is the partial-failure double-counting
// audit for ExplicitCopy: under a certain-failure schedule the copy runs
// through the full retry + degradation path, and the transferred bytes must
// be recorded exactly once.
func TestExplicitCopyCountsBytesOnce(t *testing.T) {
	d := newFaultDriver(t, &faultinject.Config{Seed: 5, DMAFailProb: 1}, func(p *Params) {
		p.MaxMigrateRetries = 2
	})
	n := 3 * units.BlockSize
	end := d.ExplicitCopy(metrics.H2D, n, 0)
	if end == 0 {
		t.Fatal("copy took no time")
	}
	if got := d.Metrics().Bytes(metrics.H2D, metrics.CauseMemcpy); got != uint64(n) {
		t.Fatalf("memcpy bytes = %d, want %d (counted once despite %d failed attempts)",
			got, n, d.Injector().Stats().DMAFailures)
	}
	if ops := d.Metrics().Ops(metrics.H2D, metrics.CauseMemcpy); ops != 1 {
		t.Fatalf("memcpy ops = %d, want 1", ops)
	}
	if st := d.Injector().Stats(); st.DMAFailures != 3 {
		t.Fatalf("DMAFailures = %d, want 3 (1 + 2 retries)", st.DMAFailures)
	}
}

// TestMallocDeviceFailureLeavesStateClean is the MallocDevice partial-
// failure audit: a rejected allocation must not leak chunks or disturb the
// device-buffer byte accounting, and the sanitizer must agree.
func TestMallocDeviceFailureLeavesStateClean(t *testing.T) {
	d := newFaultDriver(t, nil, nil)
	ok, err := d.MallocDevice(4 * units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.MallocDevice(16 * units.BlockSize); err == nil {
		t.Fatal("oversized MallocDevice unexpectedly succeeded")
	}
	if got := d.DeviceAllocBytes(); got != 4*units.BlockSize {
		t.Fatalf("DeviceAllocBytes = %v after failed alloc, want %v", got, 4*units.BlockSize)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
	d.FreeDevice(ok)
	// Double free: ignored, not double-counted.
	d.FreeDevice(ok)
	if got := d.DeviceAllocBytes(); got != 0 {
		t.Fatalf("DeviceAllocBytes = %v after double free, want 0", got)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestSanitizerCatchesDeviceByteDoubleCount seeds exactly the bug the audit
// guards against — device-buffer bytes counted twice — and demonstrates the
// sanitizer's conservation sweep catches it.
func TestSanitizerCatchesDeviceByteDoubleCount(t *testing.T) {
	d := newFaultDriver(t, nil, nil)
	chunks, err := d.MallocDevice(units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	d.deviceAllocBytes += units.BlockSize // the double-count
	err = d.CheckNow()
	if err == nil || !strings.Contains(err.Error(), "deviceAllocBytes") {
		t.Fatalf("sanitizer missed the double-count: %v", err)
	}
	d.deviceAllocBytes -= units.BlockSize
	d.FreeDevice(chunks)
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// TestRetryDeterminism: the same seed and schedule produce the identical
// fault sequence, metrics, and completion times across two fresh runs.
func TestRetryDeterminism(t *testing.T) {
	run := func() (faultinject.Stats, int64, sim.Time) {
		d := newFaultDriver(t, &faultinject.Config{
			Seed:          42,
			DMAFailProb:   0.2,
			UnmapFailProb: 0.1,
			PoisonProb:    0.01,
		}, nil)
		a, err := d.AllocManaged("x", 6*units.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		var now sim.Time
		for i := 0; i < 30; i++ {
			now = cpuAccess(t, d, a, Write, now)
			if now, err = d.GPUAccess(a, 0, uint64(a.Size()), ReadWrite, now); err != nil {
				t.Fatal(err)
			}
			if now, err = d.Discard(a, 0, uint64(a.Size()), now); err != nil {
				t.Fatal(err)
			}
		}
		return d.Injector().Stats(), d.Metrics().MigrateRetries(), now
	}
	s1, r1, t1 := run()
	s2, r2, t2 := run()
	if s1 != s2 || r1 != r2 || t1 != t2 {
		t.Fatalf("non-deterministic fault runs:\n  %+v retries=%d end=%v\n  %+v retries=%d end=%v",
			s1, r1, t1, s2, r2, t2)
	}
	if s1.DMAFailures == 0 {
		t.Fatal("schedule injected nothing; determinism test is vacuous")
	}
}

// TestDegradationWindowSlowsTransfers: a pcie window with factor 4 must
// make the same migration strictly slower inside the window than outside.
func TestDegradationWindowSlowsTransfers(t *testing.T) {
	elapsed := func(fcfg *faultinject.Config) sim.Time {
		d := newFaultDriver(t, fcfg, nil)
		a, err := d.AllocManaged("x", 2*units.BlockSize)
		if err != nil {
			t.Fatal(err)
		}
		start := cpuAccess(t, d, a, Write, 0)
		done, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, start)
		if err != nil {
			t.Fatal(err)
		}
		return done - start
	}
	slow := elapsed(&faultinject.Config{Windows: []faultinject.Window{
		{Link: faultinject.LinkPCIe, Start: 0, Dur: sim.Second, Factor: 4},
	}})
	// A window in the far future must not affect the run: identical to
	// running fault-free.
	fast := elapsed(&faultinject.Config{Windows: []faultinject.Window{
		{Link: faultinject.LinkPCIe, Start: 100 * sim.Second, Dur: sim.Second, Factor: 4},
	}})
	if slow <= fast {
		t.Fatalf("degradation window did not slow the migration: %v <= %v", slow, fast)
	}
}
