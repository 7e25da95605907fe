package core

import (
	"strings"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
)

// The sanitizer's job is to catch exactly the corruption these tests seed
// by hand: queue/owner mismatches, stray deferred-unmap markers, leaked
// chunks, and accounting drift. Each test breaks one invariant directly
// and asserts CheckNow names the offending chunk or block.

// mustViolate runs CheckNow and asserts the diagnostic mentions every
// given substring.
func mustViolate(t *testing.T, d *Driver, wants ...string) {
	t.Helper()
	err := d.CheckNow()
	if err == nil {
		t.Fatalf("sanitizer missed the seeded corruption (wanted %q)", wants)
	}
	for _, w := range wants {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("diagnostic %q does not mention %q", err, w)
		}
	}
}

func TestSanitizerCleanState(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", 2*units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.Discard(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DiscardLazy(a, uint64(units.BlockSize), uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatalf("consistent state flagged: %v", err)
	}
}

func TestSanitizerDetectsOwnerMismatch(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	b := mustAlloc(t, d, "b", units.BlockSize)
	gpuAccess(t, d, a, Write)
	gpuAccess(t, d, b, Write)

	// Point a's chunk at b's block: the back-pointer no longer matches.
	d.chunkOf(a.Block(0)).Owner = OwnerHandle(b.Block(0))
	mustViolate(t, d, "does not point back", `alloc "b"`)
}

func TestSanitizerDetectsStrayDeferredUnmap(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)

	// A live used chunk must never carry the lazy-discard marker: at
	// reclaim it would charge an unmap that was never deferred.
	d.chunkOf(a.Block(0)).NeedsUnmapOnReclaim = true
	mustViolate(t, d, "NeedsUnmapOnReclaim", "not a lazily discarded chunk")
}

func TestSanitizerDetectsLeakedChunk(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)

	// Pull the chunk off every queue without tracking it as a device
	// buffer: it has escaped the allocator.
	d.Device().Detach(d.chunkOf(a.Block(0)))
	mustViolate(t, d, "leaked")
}

func TestSanitizerDetectsHostAccountingDrift(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	cpuAccess(t, d, a, Write, 0)

	if err := d.Host().Reserve(units.BlockSize); err != nil {
		t.Fatal(err)
	}
	mustViolate(t, d, "host accounting")
}

func TestSanitizerDetectsEagerDiscardStillMapped(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.Discard(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}

	// §5.1: eager discard must leave no mapping behind — a touch through
	// a surviving mapping would never fault.
	a.Block(0).GPUMapped = true
	mustViolate(t, d, "still GPU-mapped", `alloc "a"`)
}

func TestSanitizerDetectsLostLazyMarker(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.DiscardLazy(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}

	// §5.6: losing the marker means the deferred unmap is never paid.
	d.chunkOf(a.Block(0)).NeedsUnmapOnReclaim = false
	mustViolate(t, d, "missing NeedsUnmapOnReclaim")
}

func TestSanitizerDetectsQueueMismatch(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.Discard(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}

	// Move the discarded chunk back to the used queue while the block
	// still says Discarded: the two views disagree.
	c := d.chunkOf(a.Block(0))
	d.Device().Detach(c)
	d.Device().PushUsed(c)
	mustViolate(t, d, "discarded but its chunk", gpudev.QueueUsed.String())
}

// The per-operation hook must label the panic with the public operation
// that exposed the corruption.
func TestVerifyPanicsWithOperationName(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	b := mustAlloc(t, d, "b", units.BlockSize)
	gpuAccess(t, d, a, Write)

	d.chunkOf(a.Block(0)).NeedsUnmapOnReclaim = true

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("corrupted state survived a driver operation without panicking")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "after CPUAccess") {
			t.Fatalf("panic %v does not name the operation", r)
		}
	}()
	cpuAccess(t, d, b, Write, 0)
}

// PanicOnSilentReuse turns the §5.2 protocol hazard — touching a lazily
// discarded block without the mandatory prefetch — into an immediate panic
// at the faultless access, instead of silent data loss at a later reclaim.
func TestPanicOnSilentReuse(t *testing.T) {
	d := driverWithParams(t, 8, func(p *Params) { p.PanicOnSilentReuse = true })
	a := mustAlloc(t, d, "hazard", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.DiscardLazy(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("GPU access to a lazily discarded block did not panic under PanicOnSilentReuse")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "protocol violation") || !strings.Contains(msg, `alloc "hazard"`) {
			t.Fatalf("panic %v does not describe the protocol violation", r)
		}
	}()
	if _, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0); err != nil {
		t.Fatal(err)
	}
}

// The prefetch-first protocol must NOT panic: recovery via prefetch is the
// documented correct usage of UvmDiscardLazy.
func TestPanicOnSilentReuseAllowsPrefetchProtocol(t *testing.T) {
	d := driverWithParams(t, 8, func(p *Params) { p.PanicOnSilentReuse = true })
	a := mustAlloc(t, d, "a", units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.DiscardLazy(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.PrefetchToGPU(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	gpuAccess(t, d, a, Write)
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// Sampling stride: with CheckInvariantsEvery > 1 the sweep is skipped
// between sample points, then catches the corruption at the next one.
func TestSanitizerSamplingStride(t *testing.T) {
	p := DefaultParams()
	p.CheckInvariantsEvery = 4
	d, err := New(Config{GPU: gpudev.Generic(8 * units.BlockSize), Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlloc(t, d, "a", units.BlockSize)
	b := mustAlloc(t, d, "b", units.BlockSize)
	gpuAccess(t, d, a, Write) // op 1
	d.chunkOf(a.Block(0)).NeedsUnmapOnReclaim = true

	panicked := make(chan bool, 1)
	func() {
		defer func() { panicked <- recover() != nil }()
		cpuAccess(t, d, b, Write, 0) // op 2: off-stride, skipped
	}()
	if <-panicked {
		t.Fatal("off-stride operation ran the sweep")
	}
	func() {
		defer func() { panicked <- recover() != nil }()
		cpuAccess(t, d, b, Read, 0) // op 3
		cpuAccess(t, d, b, Read, 0) // op 4: sample point
	}()
	if !<-panicked {
		t.Fatal("sample-point operation missed the corruption")
	}
}

// One knob turns the sanitizer on: DefaultParams leaves it off, the core
// test binary's TestMain forces stride 1 onto every driver whose Params
// leave it at 0, an explicit stride survives that force, and a negative
// stride is refused.
func TestSanitizerStrideKnob(t *testing.T) {
	if got := DefaultParams().CheckInvariantsEvery; got != 0 {
		t.Fatalf("DefaultParams().CheckInvariantsEvery = %d, want 0 (off)", got)
	}
	if got := testDriver(t, 8).Params().CheckInvariantsEvery; got != 1 {
		t.Fatalf("default-Params driver in the core test binary checks at stride %d, want 1", got)
	}
	d := driverWithParams(t, 8, func(p *Params) { p.CheckInvariantsEvery = 4 })
	if got := d.Params().CheckInvariantsEvery; got != 4 {
		t.Fatalf("explicit stride 4 became %d under the test force", got)
	}
	bad := DefaultParams()
	bad.CheckInvariantsEvery = -1
	if bad.Validate() == nil {
		t.Fatal("negative sanitizer stride accepted")
	}
}
