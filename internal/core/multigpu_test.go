package core

import (
	"strings"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
)

// peerDriver builds a two-GPU topology: a primary and one peer over the
// default NVLink-class fabric (§2.3).
func peerDriver(t *testing.T, blocks, peerBlocks int) *Driver {
	t.Helper()
	d, err := New(Config{
		GPU:      gpudev.Generic(units.Size(blocks) * units.BlockSize),
		PeerGPUs: []gpudev.Profile{gpudev.Generic(units.Size(peerBlocks) * units.BlockSize)},
		Link:     pcie.Preset(pcie.Gen4),
		Trace:    trace.NewRecorder(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// Discarding a block resident on a peer GPU must move its chunk to THAT
// device's discarded queue, and recovery must happen there too.
func TestDiscardOnPeerGPU(t *testing.T) {
	d := peerDriver(t, 8, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.GPUAccessOn(1, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.GPUIndex != 1 {
		t.Fatalf("setup: block on GPU %d, want 1", b.GPUIndex)
	}

	if _, err := d.Discard(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	peer := d.DeviceAt(1)
	if got := peer.QueueLen(gpudev.QueueDiscarded); got != 1 {
		t.Fatalf("peer discarded queue has %d chunks, want 1", got)
	}
	if got := d.Device().QueueLen(gpudev.QueueDiscarded); got != 0 {
		t.Fatalf("primary discarded queue has %d chunks, want 0", got)
	}
	if b.GPUMapped {
		t.Error("eager discard left the peer mapping intact")
	}

	// Re-access on the same peer recovers the chunk in place (§5.7):
	// back on the used queue, no cross-GPU traffic.
	if _, err := d.GPUAccessOn(1, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	if got := peer.QueueLen(gpudev.QueueUsed); got != 1 {
		t.Fatalf("after recovery: peer used queue has %d chunks, want 1", got)
	}
	if bytes, _ := d.Metrics().Peer(); bytes != 0 {
		t.Errorf("in-place recovery moved %d peer bytes", bytes)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// A block discarded on a peer and then touched on another GPU takes the
// actPeerDead path: the remote chunk is reclaimed with no peer transfer
// (the §5.1 saving, credited to PeerSaved) and fresh zeroed memory is
// populated locally.
func TestPeerDeadSkipsTransfer(t *testing.T) {
	d := peerDriver(t, 8, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.GPUAccessOn(1, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Discard(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}

	if _, err := d.GPUAccessOn(0, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if b.GPUIndex != 0 || b.Discarded {
		t.Fatalf("after touch on GPU 0: GPUIndex=%d Discarded=%v", b.GPUIndex, b.Discarded)
	}
	if got := d.Metrics().PeerSaved(); got != uint64(units.BlockSize) {
		t.Errorf("peer bytes saved by discard = %d, want %d", got, units.BlockSize)
	}
	if bytes, _ := d.Metrics().Peer(); bytes != 0 {
		t.Errorf("dead peer block still crossed the fabric: %d bytes", bytes)
	}
	peer := d.DeviceAt(1)
	if got := peer.QueueLen(gpudev.QueueFree); got != 8 {
		t.Errorf("peer free queue has %d chunks, want all 8 back", got)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// The undiscarded control: a live block migrates over the peer fabric and
// pays for the transfer — the baseline the PeerSaved metric is measured
// against.
func TestPeerMigrationPaysTransfer(t *testing.T) {
	d := peerDriver(t, 8, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.GPUAccessOn(1, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.GPUAccessOn(0, a, 0, uint64(a.Size()), nil, Read, 0); err != nil {
		t.Fatal(err)
	}
	if bytes, ops := d.Metrics().Peer(); bytes != uint64(units.BlockSize) || ops != 1 {
		t.Errorf("peer traffic = %d bytes / %d ops, want %d / 1", bytes, ops, units.BlockSize)
	}
	if got := d.Metrics().PeerSaved(); got != 0 {
		t.Errorf("live migration credited %d saved peer bytes", got)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// A lazy discard on a peer defers its unmap there; reclaiming the chunk
// from another GPU's touch must pay that unmap on the peer's books.
func TestLazyDiscardOnPeerDefersUnmap(t *testing.T) {
	d := peerDriver(t, 8, 8)
	a := mustAlloc(t, d, "a", units.BlockSize)
	if _, err := d.GPUAccessOn(1, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.DiscardLazy(a, 0, uint64(units.BlockSize), 0); err != nil {
		t.Fatal(err)
	}
	b := a.Block(0)
	if !b.GPUMapped || !d.chunkOf(b).NeedsUnmapOnReclaim {
		t.Fatalf("setup: lazy discard state wrong: mapped=%v marker=%v",
			b.GPUMapped, d.chunkOf(b).NeedsUnmapOnReclaim)
	}
	unmapsBefore := d.Metrics().Unmaps()

	// Touch on GPU 0: the peer chunk is reclaimed (actPeerDead) and the
	// deferred unmap comes due now (§5.6).
	if _, err := d.GPUAccessOn(0, a, 0, uint64(a.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.Metrics().Unmaps(); got != unmapsBefore+1 {
		t.Errorf("deferred unmap not paid at peer reclaim: %d unmaps, want %d",
			got, unmapsBefore+1)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// Byte conservation must hold per device: the sanitizer sweeps every GPU,
// and a chunk leaked from a PEER device is caught and attributed to it.
func TestSanitizerByteConservationAcrossDevices(t *testing.T) {
	d := peerDriver(t, 8, 4)
	a := mustAlloc(t, d, "a", 2*units.BlockSize)
	p := mustAlloc(t, d, "p", 2*units.BlockSize)
	gpuAccess(t, d, a, Write)
	if _, err := d.GPUAccessOn(1, p, 0, uint64(p.Size()), nil, Write, 0); err != nil {
		t.Fatal(err)
	}
	// A cudaMalloc buffer on the primary exercises the detached-chunk
	// side of the conservation check.
	bufs, err := d.MallocDevice(units.BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckNow(); err != nil {
		t.Fatalf("consistent two-GPU state flagged: %v", err)
	}

	// Leak a chunk from the peer: peers have no device buffers, so any
	// detached chunk there is corruption.
	d.DeviceAt(1).Detach(d.chunkOf(p.Block(0)))
	mustViolate(t, d, "GPU 1", "no queue")

	// Repair and re-verify, then free the device buffer. The repair
	// restores the used queue's exact order (block 0 before block 1), which
	// p's resident run relies on.
	d.DeviceAt(1).PushUsed(d.chunkOf(p.Block(0)))
	d.DeviceAt(1).Touch(d.chunkOf(p.Block(1)))
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
	d.FreeDevice(bufs)
	if err := d.CheckNow(); err != nil {
		t.Fatal(err)
	}
}

// Device-buffer accounting drift on the primary is also conservation
// corruption: deviceAllocBytes must match the tracked chunks.
func TestSanitizerDetectsDeviceAllocDrift(t *testing.T) {
	d := peerDriver(t, 8, 4)
	if _, err := d.MallocDevice(units.BlockSize); err != nil {
		t.Fatal(err)
	}
	d.deviceAllocBytes += units.BlockSize
	err := d.CheckNow()
	if err == nil {
		t.Fatal("deviceAllocBytes drift not caught")
	}
	if !strings.Contains(err.Error(), "deviceAllocBytes") {
		t.Errorf("diagnostic %q does not mention deviceAllocBytes", err)
	}
}
