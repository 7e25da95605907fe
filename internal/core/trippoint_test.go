package core

import (
	"context"
	"fmt"
	"testing"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// tripScenario drives one of the driver's per-block checkpoint sites: setup
// prepares residency, and run is the operation whose span the sim-budget
// ladder cuts through. fill says that run's pass is a fill pass (fill.go).
type tripScenario struct {
	gpuBlocks, allocBlocks int
	faults                 *faultinject.Config
	fill                   bool
	setup                  func(d *Driver, a *vaspace.Alloc) (sim.Time, error)
	run                    func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error)
}

// writeAllOnGPU makes every block of a GPU-resident and dirty.
func writeAllOnGPU(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
	return d.GPUAccess(a, 0, uint64(a.Size()), Write, 0)
}

var tripScenarios = map[string]tripScenario{
	// A full GPU faults in a second working set: every block zero-fills
	// after swapping out an LRU victim, so the clock moves between the
	// ensure-gpu checkpoints of consecutive blocks.
	"ensure-gpu": {
		gpuBlocks: 32, allocBlocks: 96, fill: true,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			return d.GPUAccess(a, 0, 32*uint64(units.BlockSize), Write, 0)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.GPUAccess(a, 32*uint64(units.BlockSize), 64*uint64(units.BlockSize), Write, now)
		},
	},
	// Host-resident runs separated by untouched blocks: each untouched
	// block flushes the pending coalesced H2D run after its ensure-gpu
	// checkpoint, so its evict checkpoint is the first to see the later
	// clock.
	"evict": {
		gpuBlocks: 96, allocBlocks: 96, fill: true,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			now, err := d.CPUAccessRange(a, 0, 40*uint64(units.BlockSize), Write, 0)
			if err != nil {
				return now, err
			}
			return d.CPUAccessRange(a, 41*uint64(units.BlockSize), 40*uint64(units.BlockSize), Write, now)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.GPUAccess(a, 0, 82*uint64(units.BlockSize), Read, now)
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
	// The write pass forms a resident run, so the prefetch goes through
	// it: its block checkpoints are crossed arithmetically, at a time that
	// grows by the recency cost per block.
	"run-prefetch": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: writeAllOnGPU,
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.PrefetchToGPU(a, 0, uint64(a.Size()), now)
		},
	},
	// A kernel access through a resident run sees one sim time at every
	// block checkpoint. An ECC poison of another buffer's chunk, drawn
	// after the entry checkpoint, moves that time past the budget while
	// the run stands, so the trip lands on the run's first checkpoint.
	"run-kernel": {
		gpuBlocks: 96, allocBlocks: 8,
		faults: &faultinject.Config{Seed: 7, PoisonProb: 1},
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			o, err := d.AllocManaged("other", 80*units.BlockSize)
			if err != nil {
				return 0, err
			}
			now, err := d.GPUAccess(o, 0, uint64(o.Size()), Write, 0)
			if err != nil {
				return now, err
			}
			return d.GPUAccess(a, 0, uint64(a.Size()), Write, now)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			if !a.Resident.On {
				return now, fmt.Errorf("setup left no resident run")
			}
			done, err := d.GPUAccess(a, 0, uint64(a.Size()), Read, now)
			if err == nil && !a.Resident.On {
				err = fmt.Errorf("the poison hit the run's own buffer: pick another seed")
			}
			return done, err
		},
	},
	// The setup's whole-buffer discard leaves a discarded run, so the
	// prefetch recovers it through the run: its block checkpoints are
	// crossed arithmetically, at a time that grows by MapPerBlock per
	// eagerly discarded block.
	"run-recover": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			return discardedRun(d, a, d.Discard)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			return d.PrefetchToGPU(a, 0, uint64(a.Size()), now)
		},
	},
	// A lazily discarded run recovers with no remap, so every checkpoint of
	// the recovery sees its entry time and no budget trips inside it: the
	// trips land in the second prefetch, which touches the recovered run.
	"run-recover-lazy": {
		gpuBlocks: 96, allocBlocks: 96,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			return discardedRun(d, a, d.DiscardLazy)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			now, err := d.PrefetchToGPU(a, 0, uint64(a.Size()), now)
			if err != nil {
				return now, err
			}
			return d.PrefetchToGPU(a, 0, uint64(a.Size()), now)
		},
	},
	// Two resident buffers are discarded whole in turn. A discard polls
	// only at its entry, so the first one's unmaps move the clock past the
	// budget and the trip lands at the entry of the second, over a run.
	"run-discard": {
		gpuBlocks: 96, allocBlocks: 8,
		setup: func(d *Driver, a *vaspace.Alloc) (sim.Time, error) {
			o, err := d.AllocManaged("other", 88*units.BlockSize)
			if err != nil {
				return 0, err
			}
			now, err := d.GPUAccess(o, 0, uint64(o.Size()), Write, 0)
			if err != nil {
				return now, err
			}
			return d.GPUAccess(a, 0, uint64(a.Size()), Write, now)
		},
		run: func(d *Driver, a *vaspace.Alloc, now sim.Time) (sim.Time, error) {
			o := d.Space().ByID(1) // a, the scenario's buffer, is 0
			if !o.Resident.On || !a.Resident.On {
				return now, fmt.Errorf("setup left no resident runs")
			}
			now, err := d.Discard(o, 0, uint64(o.Size()), now)
			if err != nil {
				return now, err
			}
			return d.Discard(a, 0, uint64(a.Size()), now)
		},
	},
}

// discardedRun makes every block of a GPU-resident and dirty, then
// discards a whole, which leaves a discarded run.
func discardedRun(d *Driver, a *vaspace.Alloc, discard func(*vaspace.Alloc, uint64, uint64, sim.Time) (sim.Time, error)) (sim.Time, error) {
	now, err := writeAllOnGPU(d, a)
	if err != nil {
		return now, err
	}
	if now, err = discard(a, 0, uint64(a.Size()), now); err == nil && !a.Resident.Discarded {
		err = fmt.Errorf("setup left no discarded run")
	}
	return now, err
}

// runTripScenario runs a scenario under ctl, counting into m (nil: a fresh
// collector), and returns the setup and run completion times and the
// interrupt that stopped it, if any.
func runTripScenario(t *testing.T, sc tripScenario, ctl *runctl.Control, m *metrics.Collector) (setupDone, runDone sim.Time, trip *runctl.Interrupt) {
	t.Helper()
	d, err := New(Config{
		GPU:     gpudev.Generic(units.Size(sc.gpuBlocks) * units.BlockSize),
		Link:    pcie.Preset(pcie.Gen4),
		Control: ctl,
		Faults:  sc.faults,
		Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := mustAlloc(t, d, "buf", units.Size(sc.allocBlocks)*units.BlockSize)
	var fills uint64
	err = func() (err error) {
		defer runctl.Recover(&err)
		if setupDone, err = sc.setup(d, a); err != nil {
			return err
		}
		fills = d.fillPasses
		runDone, err = sc.run(d, a, setupDone)
		return err
	}()
	if sc.fill && d.fillPasses == fills {
		t.Fatal("the scenario's run took no fill pass")
	}
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
		// Recorded with the per-block loop, before resident runs existed.
		{"run-prefetch", 0, "ensure-gpu", 1685440},
		{"run-prefetch", 1, "ensure-gpu", 1690240},
		{"run-prefetch", 2, "ensure-gpu", 1695040},
		{"run-prefetch", 3, "ensure-gpu", 1699840},
		{"run-prefetch", 4, "ensure-gpu", 1704640},
		{"run-prefetch", 5, "ensure-gpu", 1709440},
		{"run-prefetch", 6, "ensure-gpu", 1714240},
		{"run-prefetch", 7, "ensure-gpu", 1719040},
		{"run-kernel", 0, "ensure-gpu", 1561520},
		{"run-kernel", 1, "ensure-gpu", 1561520},
		{"run-kernel", 2, "ensure-gpu", 1561520},
		{"run-kernel", 3, "ensure-gpu", 1561520},
		{"run-kernel", 4, "ensure-gpu", 1561520},
		{"run-kernel", 5, "ensure-gpu", 1561520},
		{"run-kernel", 6, "ensure-gpu", 1561520},
		{"run-kernel", 7, "ensure-gpu", 1561520},
		// Recorded with the per-block loops, before discarded runs existed.
		{"run-recover", 0, "ensure-gpu", 1899240},
		{"run-recover", 1, "ensure-gpu", 1935240},
		{"run-recover", 2, "ensure-gpu", 1971240},
		{"run-recover", 3, "ensure-gpu", 2007240},
		{"run-recover", 4, "ensure-gpu", 2043240},
		{"run-recover", 5, "ensure-gpu", 2079240},
		{"run-recover", 6, "ensure-gpu", 2115240},
		{"run-recover", 7, "ensure-gpu", 2151240},
		{"run-recover-lazy", 0, "ensure-gpu", 1685440},
		{"run-recover-lazy", 1, "ensure-gpu", 1690240},
		{"run-recover-lazy", 2, "ensure-gpu", 1695040},
		{"run-recover-lazy", 3, "ensure-gpu", 1699840},
		{"run-recover-lazy", 4, "ensure-gpu", 1704640},
		{"run-recover-lazy", 5, "ensure-gpu", 1709440},
		{"run-recover-lazy", 6, "ensure-gpu", 1714240},
		{"run-recover-lazy", 7, "ensure-gpu", 1719040},
		{"run-discard", 0, "Discard", 1903640},
		{"run-discard", 1, "Discard", 1903640},
		{"run-discard", 2, "Discard", 1903640},
		{"run-discard", 3, "Discard", 1903640},
		{"run-discard", 4, "Discard", 1903640},
		{"run-discard", 5, "Discard", 1903640},
		{"run-discard", 6, "Discard", 1903640},
		{"run-discard", 7, "Discard", 1903640},
	}
	// A live context keeps the cancel poll on the path without tripping it.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range tests {
		sc := tripScenarios[tc.scenario]
		budget := tripBudget(t, tc.scenario, tc.eighth)
		_, _, trip := runTripScenario(t, sc, runctl.New(ctx, 0, budget), nil)
		if trip == nil || trip.Reason != runctl.SimBudget || trip.Op != tc.op || trip.SimTime != tc.at {
			t.Errorf("%s at %d/8 (budget %d): trip %+v, want sim-budget at %s, sim time %d",
				tc.scenario, tc.eighth, budget, trip, tc.op, tc.at)
		}
	}
}

// tripBudget returns the sim budget at eighth/8 of a scenario's run span,
// from a calibration run without a budget.
func tripBudget(t *testing.T, scenario string, eighth int) sim.Time {
	t.Helper()
	start, end, trip := runTripScenario(t, tripScenarios[scenario], nil, nil)
	if trip != nil || end <= start {
		t.Fatalf("%s: calibration run tripped or took no time: %v..%v, %v", scenario, start, end, trip)
	}
	return start + (end-start)*sim.Time(eighth)/8
}

// TestSimBudgetTripCounts pins what a run's collector holds when a sim
// budget stops the run inside an eviction train. The collector is the one
// passed in through Config.Metrics, read directly as a service's exporter
// reads it, not through Driver.Metrics: the driver must fold its pending
// per-block counts into it before it aborts. The counts were recorded when
// every count went straight into the collector.
func TestSimBudgetTripCounts(t *testing.T) {
	tests := []struct {
		scenario string
		eighth   int
		want     string
	}{
		{"ensure-gpu", 0, "unmaps 0, maps 32, H2D fault 0 B, D2H eviction 0 B, zero-fills 32, evictions free/unused/discarded/lru 32/0/0/0"},
		{"ensure-gpu", 1, "unmaps 5, maps 37, H2D fault 0 B, D2H eviction 10485760 B, zero-fills 37, evictions free/unused/discarded/lru 32/0/0/5"},
		{"ensure-gpu", 2, "unmaps 13, maps 45, H2D fault 0 B, D2H eviction 27262976 B, zero-fills 45, evictions free/unused/discarded/lru 32/0/0/13"},
		{"ensure-gpu", 3, "unmaps 22, maps 54, H2D fault 0 B, D2H eviction 46137344 B, zero-fills 54, evictions free/unused/discarded/lru 32/0/0/22"},
		{"ensure-gpu", 4, "unmaps 30, maps 62, H2D fault 0 B, D2H eviction 62914560 B, zero-fills 62, evictions free/unused/discarded/lru 32/0/0/30"},
		{"ensure-gpu", 5, "unmaps 39, maps 71, H2D fault 0 B, D2H eviction 81788928 B, zero-fills 71, evictions free/unused/discarded/lru 32/0/0/39"},
		{"ensure-gpu", 6, "unmaps 47, maps 79, H2D fault 0 B, D2H eviction 98566144 B, zero-fills 79, evictions free/unused/discarded/lru 32/0/0/47"},
		{"ensure-gpu", 7, "unmaps 56, maps 88, H2D fault 0 B, D2H eviction 117440512 B, zero-fills 88, evictions free/unused/discarded/lru 32/0/0/56"},
		{"evict", 0, "unmaps 0, maps 0, H2D fault 0 B, D2H eviction 0 B, zero-fills 0, evictions free/unused/discarded/lru 0/0/0/0"},
		{"evict", 1, "unmaps 0, maps 40, H2D fault 83886080 B, D2H eviction 0 B, zero-fills 0, evictions free/unused/discarded/lru 40/0/0/0"},
		{"evict", 2, "unmaps 0, maps 40, H2D fault 83886080 B, D2H eviction 0 B, zero-fills 0, evictions free/unused/discarded/lru 40/0/0/0"},
		{"evict", 3, "unmaps 0, maps 40, H2D fault 83886080 B, D2H eviction 0 B, zero-fills 0, evictions free/unused/discarded/lru 40/0/0/0"},
		{"evict", 4, "unmaps 0, maps 40, H2D fault 83886080 B, D2H eviction 0 B, zero-fills 0, evictions free/unused/discarded/lru 40/0/0/0"},
		{"evict", 5, "unmaps 0, maps 81, H2D fault 167772160 B, D2H eviction 0 B, zero-fills 1, evictions free/unused/discarded/lru 81/0/0/0"},
		{"evict", 6, "unmaps 0, maps 81, H2D fault 167772160 B, D2H eviction 0 B, zero-fills 1, evictions free/unused/discarded/lru 81/0/0/0"},
		{"evict", 7, "unmaps 0, maps 81, H2D fault 167772160 B, D2H eviction 0 B, zero-fills 1, evictions free/unused/discarded/lru 81/0/0/0"},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range tests {
		m := metrics.New()
		_, _, trip := runTripScenario(t, tripScenarios[tc.scenario], runctl.New(ctx, 0, tripBudget(t, tc.scenario, tc.eighth)), m)
		if trip == nil {
			t.Fatalf("%s at %d/8: the run did not trip", tc.scenario, tc.eighth)
		}
		zeroFills, _ := m.ZeroFills()
		got := fmt.Sprintf("unmaps %d, maps %d, H2D fault %d B, D2H eviction %d B, zero-fills %d, evictions free/unused/discarded/lru %d/%d/%d/%d",
			m.Unmaps(), m.Maps(), m.Bytes(metrics.H2D, metrics.CauseFault), m.Bytes(metrics.D2H, metrics.CauseEviction), zeroFills,
			m.Evictions(metrics.EvictFree), m.Evictions(metrics.EvictUnused),
			m.Evictions(metrics.EvictDiscarded), m.Evictions(metrics.EvictLRU))
		if got != tc.want {
			t.Errorf("%s at %d/8: collector at the trip holds\n%s\nwant\n%s", tc.scenario, tc.eighth, got, tc.want)
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
	done, err := d.GPUAccess(a, 0, uint64(a.Size()), Write, 0)
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
	for _, b := range allBlocks(a) {
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
