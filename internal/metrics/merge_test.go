package metrics

import (
	"testing"

	"uvmdiscard/internal/sim"
)

// Merge sums every counter family and adopts the source's residency gauges,
// which is what keeps the /metrics exporter's cumulative collector
// monotonic as finished runs fold in.
func TestMergeSumsCountersAndAdoptsGauges(t *testing.T) {
	a, b := New(), New()
	var ta, tb Tally
	ta.AddTransfer(H2D, CauseFault, 100)
	tb.AddTransfer(H2D, CauseFault, 23)
	tb.AddTransfer(D2H, CauseEviction, 7)
	ta.AddSaved(H2D, 11)
	tb.AddSaved(D2H, 5)
	ta.AddEviction(EvictLRU)
	tb.AddEviction(EvictLRU)
	tb.AddEviction(EvictDiscarded)
	tb.AddDiscard(3)
	tb.AddPoison(8, 2)
	a.Fold(&ta)
	b.Fold(&tb)
	a.AddAPITime("discard", sim.Time(4))
	b.AddAPITime("discard", sim.Time(6))
	b.SetDeviceResidency(1, DeviceResidency{UsedBytes: 42, CapacityBytes: 100})

	a.Merge(b)
	if got := a.Bytes(H2D, CauseFault); got != 123 {
		t.Errorf("H2D fault bytes = %d, want 123", got)
	}
	if got := a.Bytes(D2H, CauseEviction); got != 7 {
		t.Errorf("D2H eviction bytes = %d, want 7", got)
	}
	h2d, d2h := a.Saved()
	if h2d != 11 || d2h != 5 {
		t.Errorf("Saved = %d/%d, want 11/5", h2d, d2h)
	}
	if got := a.Evictions(EvictLRU); got != 2 {
		t.Errorf("LRU evictions = %d, want 2", got)
	}
	if calls, blocks := a.Discards(); calls != 1 || blocks != 3 {
		t.Errorf("Discards = %d/%d, want 1/3", calls, blocks)
	}
	if chunks, rec, lost := a.Poisoned(); chunks != 1 || rec != 8 || lost != 2 {
		t.Errorf("Poisoned = %d/%d/%d", chunks, rec, lost)
	}
	if got := a.APITime("discard"); got != 10 {
		t.Errorf("APITime = %v, want 10", got)
	}
	res := a.DeviceResidency()
	if len(res) != 2 || res[1].UsedBytes != 42 {
		t.Errorf("residency gauges not adopted: %+v", res)
	}

	// Merging a collector with no published gauges must not clobber a's.
	a.Merge(New())
	if res := a.DeviceResidency(); len(res) != 2 || res[1].UsedBytes != 42 {
		t.Errorf("empty merge clobbered gauges: %+v", res)
	}
}

// Residency gauges survive Snapshot and are cleared by Reset.
func TestDeviceResidencySnapshotReset(t *testing.T) {
	c := New()
	c.SetDeviceResidency(0, DeviceResidency{UsedBytes: 7})
	s := c.Snapshot()
	c.SetDeviceResidency(0, DeviceResidency{UsedBytes: 9})
	if got := s.DeviceResidency()[0].UsedBytes; got != 7 {
		t.Errorf("snapshot residency = %d, want detached 7", got)
	}
	c.Reset()
	if got := c.DeviceResidency(); len(got) != 0 {
		t.Errorf("Reset left residency gauges: %+v", got)
	}
}
