package core

import (
	"testing"

	"uvmdiscard/internal/units"
)

// PublishResidency mirrors the device's queue occupancy into the
// collector's per-device gauges — the layer the uvmsimd /metrics exporter
// renders with device="gpuN" labels.
func TestPublishResidencyMirrorsQueues(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "buf", 3*units.BlockSize)
	gpuAccess(t, d, a, Write)

	d.PublishResidency()
	res := d.Metrics().DeviceResidency()
	if len(res) != 1 {
		t.Fatalf("residency for %d devices, want 1", len(res))
	}
	r := res[0]
	bs := uint64(units.BlockSize)
	if r.CapacityBytes != 8*bs {
		t.Errorf("capacity = %d, want %d", r.CapacityBytes, 8*bs)
	}
	if r.UsedBytes != 3*bs {
		t.Errorf("used = %d, want %d", r.UsedBytes, 3*bs)
	}
	if r.FreeBytes != 5*bs {
		t.Errorf("free = %d, want %d", r.FreeBytes, 5*bs)
	}

	// Discarding moves the chunks: the gauges must follow.
	if _, err := d.Discard(a, 0, uint64(a.Size()), 0); err != nil {
		t.Fatal(err)
	}
	d.PublishResidency()
	r = d.Metrics().DeviceResidency()[0]
	if r.UsedBytes != 0 || r.DiscardedBytes != 3*bs {
		t.Errorf("after discard: used=%d discarded=%d, want 0/%d",
			r.UsedBytes, r.DiscardedBytes, 3*bs)
	}
	var total uint64
	for _, q := range []uint64{r.FreeBytes, r.UnusedBytes, r.UsedBytes,
		r.DiscardedBytes, r.ReservedBytes, r.PoisonedBytes} {
		total += q
	}
	if total != r.CapacityBytes {
		t.Errorf("queue bytes %d do not cover capacity %d", total, r.CapacityBytes)
	}
	// Sanity: the same numbers are visible through a detached snapshot.
	if snap := d.Metrics().Snapshot().DeviceResidency(); snap[0] != r {
		t.Errorf("snapshot residency %+v != live %+v", snap[0], r)
	}
}
