package runctl

import (
	"context"
	"testing"
	"time"

	"uvmdiscard/internal/sim"
)

// A control armed only with a context still measures how long its run has
// been executing: a canceled run reports the host time it ran, not zero.
func TestCanceledContextOnlyControlReportsWall(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ctx, 0, 0)
	const ran = 20 * time.Millisecond
	time.Sleep(ran)
	cancel()
	i := c.Check("kernel", sim.Millisecond)
	if i == nil || i.Reason != Canceled {
		t.Fatalf("canceled control did not trip: %+v", i)
	}
	if i.Wall < ran {
		t.Fatalf("interrupt Wall = %v, want at least the %v the run executed", i.Wall, ran)
	}
}

// Check publishes progress into the control's one snapshot, so polling an
// armed control allocates nothing, publication points included, and
// reading the snapshot allocates nothing either.
func TestCheckDoesNotAllocate(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := New(ctx, time.Hour, sim.Second)
	var now sim.Time
	allocs := testing.AllocsPerRun(4*progressStride, func() {
		now += sim.Microsecond
		if i := c.Check("evict", now); i != nil {
			t.Fatalf("control tripped: %v", i)
		}
		c.Progress()
	})
	if allocs != 0 {
		t.Fatalf("Check+Progress allocate %.2f times per call, want 0", allocs)
	}
	if p, ok := c.Progress(); !ok || p.Checks == 0 {
		t.Fatalf("no progress published over %d checks: %+v", c.calls, p)
	}
}

// SimLimit is the budget a stride-polling caller compares against: the
// budget itself, or a time no run reaches when there is none.
func TestSimLimit(t *testing.T) {
	var nilc *Control
	for _, tc := range []struct {
		c    *Control
		want sim.Time
	}{
		{nilc, sim.Infinity},
		{New(nil, time.Hour, 0), sim.Infinity},
		{New(nil, 0, 3*sim.Millisecond), 3 * sim.Millisecond},
	} {
		if got := tc.c.SimLimit(); got != tc.want {
			t.Errorf("SimLimit() = %v, want %v", got, tc.want)
		}
	}
}
