package core

import (
	"context"
	"testing"

	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// tripScenario drives one of the driver's per-block checkpoint sites: setup
// prepares residency, and run is the operation whose span the sim-budget
// ladder cuts through.
type tripScenario struct {
	gpuBlocks, allocBlocks int
	setup                  func(d *Driver, a *vaspace.Alloc) (sim.Time, error)
	run                    func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error)
}

// writeAllOnGPU makes every block of a GPU-resident and dirty.
func writeAllOnGPU(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
	return d.GPUAccess(a.Blocks(), Write, 0)
}

var tripScenarios = map[string]tripScenario{
	// A full GPU faults in a second working set: every block zero-fills
	// after swapping out an LRU victim, so the clock moves between the
	// ensure-gpu checkpoints of consecutive blocks.
	"ensure-gpu": {
		gpuBlocks: 32, allocBlocks: 96,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			return d.GPUAccess(a.Blocks()[:32], Write, 0)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.GPUAccess(a.Blocks()[32:], Write, now)
		},
	},
	// Host-resident runs separated by untouched blocks: each untouched
	// block flushes the pending coalesced H2D run after its ensure-gpu
	// checkpoint, so its evict checkpoint is the first to see the later
	// clock.
	"evict": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			now, err := d.CPUAccessRange(a, 0, 40*uint64(units.BlockSize), Write, 0)
			if err != nil {
				return now, err
			}
			return d.CPUAccessRange(a, 41*uint64(units.BlockSize), 40*uint64(units.BlockSize), Write, now)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.GPUAccess(a.Blocks()[:82], Read, now)
		},
	},
	// Every block is GPU-resident and dirty, so host access and prefetch to
	// host migrate each one back and the clock moves per block.
	"CPUAccess": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: writeAllOnGPU,
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.CPUAccessRange(a, 0, uint64(a.Size()), Read, now)
		},
	},
	"PrefetchToCPU": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: writeAllOnGPU,
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.PrefetchToCPU(a, 0, uint64(a.Size()), now)
		},
	},
}

// runTripScenario runs a scenario under ctl and returns the setup and run
// completion times and the interrupt that stopped it, if any.
func runTripScenario(t *testing.T, sc tripScenario, ctl *runctl.Control) (setupDone, runDone sim.Time, trip *runctl.Interrupt) {
	t.Helper()
	d := controlDriver(t, sc.gpuBlocks, ctl)
	a := mustAlloc(t, d, "buf", units.Size(sc.allocBlocks)*units.BlockSize)
	err := func() (err error) {
		defer runctl.Recover(&err)
		if setupDone, err = sc.setup(d, a); err != nil {
			return err
		}
		runDone, err = sc.run(d, a, setupDone)
		return err
	}()
	trip = runctl.AsInterrupt(err)
	if err != nil && trip == nil {
		t.Fatal(err)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after run: %v", serr)
	}
	return setupDone, runDone, trip
}

// TestSimBudgetTripPoints pins where a sim budget stops each per-block
// checkpoint site. For a ladder of budgets across each scenario's run, the
// interrupt must be a SimBudget trip at the op and sim time recorded when
// every checkpoint ran the full control check. The budget compare is exact
// on every block, so polling the rest of the control on a stride must not
// move a single trip.
func TestSimBudgetTripPoints(t *testing.T) {
	tests := []struct {
		scenario string
		eighth   int // budget = setup end + eighth/8 of the run's span
		op       string
		at       sim.Time
	}{
		{"ensure-gpu", 0, "ensure-gpu", 1045680},
		{"ensure-gpu", 1, "ensure-gpu", 1606150},
		{"ensure-gpu", 2, "ensure-gpu", 2502902},
		{"ensure-gpu", 3, "ensure-gpu", 3511748},
		{"ensure-gpu", 4, "ensure-gpu", 4408500},
		{"ensure-gpu", 5, "ensure-gpu", 5417346},
		{"ensure-gpu", 6, "ensure-gpu", 6314098},
		{"ensure-gpu", 7, "ensure-gpu", 7322944},
		{"evict", 0, "ensure-gpu", 42242000},
		{"evict", 1, "evict", 45653197},
		{"evict", 2, "evict", 45653197},
		{"evict", 3, "evict", 45653197},
		{"evict", 4, "evict", 45653197},
		{"evict", 5, "evict", 49074384},
		{"evict", 6, "evict", 49074384},
		{"evict", 7, "evict", 49074384},
		{"CPUAccess", 0, "CPUAccess", 1787144},
		{"CPUAccess", 1, "CPUAccess", 3012392},
		{"CPUAccess", 2, "CPUAccess", 4237640},
		{"CPUAccess", 3, "CPUAccess", 5462888},
		{"CPUAccess", 4, "CPUAccess", 6688136},
		{"CPUAccess", 5, "CPUAccess", 7913384},
		{"CPUAccess", 6, "CPUAccess", 9138632},
		{"CPUAccess", 7, "CPUAccess", 10363880},
		{"PrefetchToCPU", 0, "PrefetchToCPU", 1787144},
		{"PrefetchToCPU", 1, "PrefetchToCPU", 3012392},
		{"PrefetchToCPU", 2, "PrefetchToCPU", 4237640},
		{"PrefetchToCPU", 3, "PrefetchToCPU", 5462888},
		{"PrefetchToCPU", 4, "PrefetchToCPU", 6688136},
		{"PrefetchToCPU", 5, "PrefetchToCPU", 7913384},
		{"PrefetchToCPU", 6, "PrefetchToCPU", 9138632},
		{"PrefetchToCPU", 7, "PrefetchToCPU", 10363880},
	}
	// A live context keeps the cancel poll on the path without tripping it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range tests {
		sc := tripScenarios[tc.scenario]
		start, end, trip := runTripScenario(t, sc, nil)
		if trip != nil || end <= start {
			t.Fatalf("%s: calibration run tripped or took no time: %v..%v, %v", tc.scenario, start, end, trip)
		}
		budget := start + (end-start)*sim.Time(tc.eighth)/8
		_, _, trip = runTripScenario(t, sc, runctl.New(ctx, 0, budget))
		if trip == nil || trip.Reason != runctl.SimBudget || trip.Op != tc.op || trip.SimTime != tc.at {
			t.Errorf("%s at %d/8 (budget %d): trip %+v, want sim-budget at %s, sim time %d",
				tc.scenario, tc.eighth, budget, trip, tc.op, tc.at)
		}
	}
}

// TestCancelSeenWithinBlockStride bounds how far a canceled run gets inside
// one operation. Block checkpoints poll the context every blockPollStride
// blocks, so a host access over many GPU-resident blocks stops inside the
// call before it has migrated a stride's worth of them, with the driver
// still sanitizer-clean.
func TestCancelSeenWithinBlockStride(t *testing.T) {
	const blocks = 4 * blockPollStride
	ctx, cancel := context.WithCancel(context.Background())
	d := controlDriver(t, blocks, runctl.New(ctx, 0, 0))
	a := mustAlloc(t, d, "buf", blocks*units.BlockSize)
	done, err := d.GPUAccess(a.Blocks(), Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	err = func() (err error) {
		defer runctl.Recover(&err)
		_, err = d.CPUAccessRange(a, 0, uint64(a.Size()), Read, done)
		return err
	}()
	if i := runctl.AsInterrupt(err); i == nil || i.Reason != runctl.Canceled || i.Op != "CPUAccess" {
		t.Fatalf("canceled host access did not trip inside the call: %v", err)
	}
	migrated := 0
	for _, b := range a.Blocks() {
		if b.Residency == vaspace.CPUResident {
			migrated++
		}
	}
	if migrated >= blockPollStride {
		t.Fatalf("canceled run migrated %d blocks before tripping, want fewer than %d", migrated, blockPollStride)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after cancel: %v", serr)
	}
}
