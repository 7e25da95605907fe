package experiments

import (
	"context"
	"runtime"
	"testing"
)

// mallocs returns how many heap objects one run of experiment id allocates.
func mallocs(t *testing.T, id string, o Options) uint64 {
	t.Helper()
	e, ok := Lookup(id)
	if !ok {
		t.Fatalf("experiment %s not registered", id)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := e.Run(o); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// An armed run control costs its construction and nothing per poll: quick
// T1 and quick F5, DL runs that cross tens of thousands of driver checkpoints,
// allocate at most a handful of objects more under a cancelable context
// than without one.
func TestArmedRunAllocatesLikeUnarmed(t *testing.T) {
	const slack = 16
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, id := range []string{"T1", "F5"} {
		mallocs(t, id, Options{Quick: true}) // warm shared caches
		unarmed := mallocs(t, id, Options{Quick: true})
		armed := mallocs(t, id, Options{Quick: true, Ctx: ctx})
		if armed > unarmed+slack {
			t.Errorf("%s: armed run made %d allocations, unarmed %d; want at most %d more",
				id, armed, unarmed, slack)
		}
	}
}
