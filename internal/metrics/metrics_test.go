package metrics

import (
	"strings"
	"sync"
	"testing"

	"uvmdiscard/internal/sim"
)

func TestTransfersAndTotals(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddTransfer(H2D, CauseFault, 100)
	tl.AddTransfer(H2D, CausePrefetch, 200)
	tl.AddTransfer(D2H, CauseEviction, 300)
	tl.AddTransfer(D2H, CauseMemcpy, 50)
	c.Fold(&tl)

	if c.Bytes(H2D, CauseFault) != 100 {
		t.Errorf("fault bytes = %d", c.Bytes(H2D, CauseFault))
	}
	if c.Ops(H2D, CausePrefetch) != 1 {
		t.Errorf("prefetch ops = %d", c.Ops(H2D, CausePrefetch))
	}
	if c.TotalBytes(H2D) != 300 {
		t.Errorf("H2D total = %d", c.TotalBytes(H2D))
	}
	if c.TotalBytes(D2H) != 350 {
		t.Errorf("D2H total = %d", c.TotalBytes(D2H))
	}
	if c.Traffic() != 650 {
		t.Errorf("traffic = %d", c.Traffic())
	}
}

func TestSaved(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddSaved(H2D, 10)
	tl.AddSaved(D2H, 20)
	tl.AddSaved(D2H, 5)
	c.Fold(&tl)
	h, d := c.Saved()
	if h != 10 || d != 25 {
		t.Errorf("saved = %d/%d", h, d)
	}
}

func TestEvictionCounters(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddEviction(EvictFree)
	tl.AddEviction(EvictDiscarded)
	tl.AddEviction(EvictDiscarded)
	tl.AddEviction(EvictLRU)
	c.Fold(&tl)
	if c.Evictions(EvictFree) != 1 || c.Evictions(EvictDiscarded) != 2 ||
		c.Evictions(EvictLRU) != 1 || c.Evictions(EvictUnused) != 0 {
		t.Error("eviction counters wrong")
	}
}

func TestFaultZeroMapCounters(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddFaultBatch(3)
	tl.AddFaultBatch(2)
	c.Fold(&tl)
	batches, blocks := c.FaultBatches()
	if batches != 2 || blocks != 5 {
		t.Errorf("faults = %d/%d", batches, blocks)
	}
	tl.AddZeroFill(2, 10)
	c.Fold(&tl)
	zb, zp := c.ZeroFills()
	if zb != 2 || zp != 10 {
		t.Errorf("zeros = %d/%d", zb, zp)
	}
	tl.AddUnmap(4)
	tl.AddMap(7)
	c.Fold(&tl)
	if c.Unmaps() != 4 || c.Maps() != 7 {
		t.Error("map counters wrong")
	}
	tl.AddDiscard(16)
	c.Fold(&tl)
	calls, covered := c.Discards()
	if calls != 1 || covered != 16 {
		t.Errorf("discards = %d/%d", calls, covered)
	}
}

func TestAPITime(t *testing.T) {
	c := New()
	c.AddAPITime("cudaMalloc", sim.Micros(48))
	c.AddAPITime("cudaMalloc", sim.Micros(2))
	if c.APITime("cudaMalloc") != sim.Micros(50) {
		t.Errorf("api time = %v", c.APITime("cudaMalloc"))
	}
	if c.APITime("unknown") != 0 {
		t.Error("unknown api time nonzero")
	}
}

func TestZeroValueCollectorUsable(t *testing.T) {
	var c Collector
	c.AddAPITime("x", 1) // must not panic on nil map
	var tl Tally
	tl.AddTransfer(H2D, CauseFault, 1)
	c.Fold(&tl)
	if c.Traffic() != 1 {
		t.Error("zero-value collector broken")
	}
}

func TestReset(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddTransfer(H2D, CauseFault, 100)
	tl.AddEviction(EvictLRU)
	c.Fold(&tl)
	c.AddAPITime("x", 5)
	c.Reset()
	if c.Traffic() != 0 || c.Evictions(EvictLRU) != 0 || c.APITime("x") != 0 {
		t.Error("reset incomplete")
	}
	c.AddAPITime("y", 1) // map must be re-usable after reset
}

func TestStringers(t *testing.T) {
	if H2D.String() != "H2D" || D2H.String() != "D2H" {
		t.Error("direction names")
	}
	if CauseFault.String() != "fault" || CausePrefetch.String() != "prefetch" ||
		CauseEviction.String() != "eviction" || CauseMemcpy.String() != "memcpy" {
		t.Error("cause names")
	}
	for _, s := range []EvictSource{EvictFree, EvictUnused, EvictDiscarded, EvictLRU} {
		if s.String() == "" {
			t.Error("empty eviction source name")
		}
	}
	if Direction(9).String() == "" || Cause(9).String() == "" || EvictSource(9).String() == "" {
		t.Error("unknown enum values should still stringify")
	}
}

func TestSummaryMentionsKeyFields(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddTransfer(H2D, CausePrefetch, 1_000_000_000)
	tl.AddSaved(D2H, 2_000_000_000)
	tl.AddEviction(EvictDiscarded)
	c.Fold(&tl)
	c.AddAPITime("UvmDiscard", sim.Micros(4))
	s := c.Summary()
	for _, want := range []string{"traffic", "H2D/prefetch", "saved by discard", "discarded 1", "UvmDiscard"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

// The collector must tolerate concurrent writers and readers: a service's
// /metrics exporter snapshots a run's collector while the run is still
// folding its counts in. The race detector is the real assertion here.
func TestCollectorConcurrentAccess(t *testing.T) {
	c := New()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tl Tally
			for i := 0; i < 500; i++ {
				tl.AddTransfer(H2D, CauseFault, 10)
				tl.AddSaved(D2H, 5)
				tl.AddEviction(EvictLRU)
				c.Fold(&tl)
				c.AddAPITime("api", sim.Micros(1))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = c.Traffic()
			_ = c.Snapshot().Summary()
		}
	}()
	wg.Wait()
	if got := c.Bytes(H2D, CauseFault); got != 4*500*10 {
		t.Errorf("concurrent adds lost updates: %d", got)
	}
}

// Snapshot is a detached, consistent copy.
func TestCollectorSnapshotDetached(t *testing.T) {
	c := New()
	var tl Tally
	tl.AddTransfer(D2H, CauseEviction, 100)
	c.Fold(&tl)
	c.AddAPITime("x", sim.Micros(2))
	s := c.Snapshot()
	tl.AddTransfer(D2H, CauseEviction, 900)
	c.Fold(&tl)
	c.AddAPITime("x", sim.Micros(8))
	if got := s.Bytes(D2H, CauseEviction); got != 100 {
		t.Errorf("snapshot bytes = %d, want 100", got)
	}
	if got := s.APITime("x"); got != sim.Micros(2) {
		t.Errorf("snapshot api time = %v, want 2µs", got)
	}
	if got := c.Bytes(D2H, CauseEviction); got != 1000 {
		t.Errorf("live collector = %d, want 1000", got)
	}
}
