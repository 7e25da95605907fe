package core

import (
	"context"
	"errors"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// controlDriver builds a driver with a run control attached. The TestMain
// sanitizer (stride 1) is active, so every operation — including the one a
// trip aborts — is followed by a full invariant sweep.
func controlDriver(t *testing.T, blocks int, ctl *runctl.Control) *Driver {
	t.Helper()
	d, err := New(Config{
		GPU:     gpudev.Generic(units.Size(blocks) * units.BlockSize),
		Link:    pcie.Preset(pcie.Gen4),
		Control: ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// evictionWorkload dirties the GPU to capacity and then touches a second
// working set, forcing a train of LRU evictions. It returns the completion
// times of the fill phase and of the eviction-heavy phase.
func evictionWorkload(t *testing.T, d *Driver, a *vaspace.Alloc) (fillDone, evictDone sim.Time) {
	t.Helper()
	half := uint64(a.Size()) / 2
	fillDone, err := d.GPUAccess(a, 0, half, Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	evictDone, err = d.GPUAccess(a, half, half, Write, fillDone)
	if err != nil {
		t.Fatal(err)
	}
	return fillDone, evictDone
}

// TestSimBudgetKillsMidEviction aborts a run while the eviction process is
// swapping out the LRU working set and proves the abort is a structured
// error raised at a consistent point: the interrupt names an eviction-path
// checkpoint, and the full sanitizer sweep still passes afterwards.
func TestSimBudgetKillsMidEviction(t *testing.T) {
	const gpuBlocks = 8
	// Calibration pass: same workload, no control — deterministic timings.
	ref := controlDriver(t, gpuBlocks, nil)
	refAlloc := mustAlloc(t, ref, "buf", 2*gpuBlocks*units.BlockSize)
	fillDone, evictDone := evictionWorkload(t, ref, refAlloc)
	if evictDone <= fillDone {
		t.Fatalf("eviction phase took no time: fill %v, evict %v", fillDone, evictDone)
	}

	// Budget expires halfway through the eviction phase, so the trip must
	// land on a checkpoint inside the eviction train, not at an op entry.
	budget := fillDone + (evictDone-fillDone)/2
	ctl := runctl.New(nil, 0, budget)
	d := controlDriver(t, gpuBlocks, ctl)
	a := mustAlloc(t, d, "buf", 2*gpuBlocks*units.BlockSize)

	err := func() (err error) {
		defer runctl.Recover(&err)
		half := uint64(a.Size()) / 2
		done, err := d.GPUAccess(a, 0, half, Write, 0)
		if err != nil {
			return err
		}
		_, err = d.GPUAccess(a, half, half, Write, done)
		return err
	}()
	i := runctl.AsInterrupt(err)
	if i == nil {
		t.Fatalf("budgeted run did not interrupt: err=%v", err)
	}
	if i.Reason != runctl.SimBudget {
		t.Fatalf("wrong reason: %+v", i)
	}
	if i.Op != "evict" && i.Op != "ensure-gpu" {
		t.Fatalf("interrupt did not land mid-eviction: op=%q (%+v)", i.Op, i)
	}
	if i.SimTime <= budget {
		t.Fatalf("interrupt sim time %v not past budget %v", i.SimTime, budget)
	}
	// The aborted driver's state must be fully consistent (stride-1 sweep).
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after interrupt: %v", serr)
	}
	// And sticky: the run cannot resume past its own abort.
	if trip := ctl.Interrupted(); trip != i {
		t.Fatalf("control lost its trip: %+v", trip)
	}
}

// TestCanceledContextAbortsRun cancels the run's context and expects the
// next checkpoint to abort with a Canceled interrupt that unwraps to
// context.Canceled, leaving sanitizer-clean state.
func TestCanceledContextAbortsRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ctl := runctl.New(ctx, 0, 0)
	d := controlDriver(t, 8, ctl)
	a := mustAlloc(t, d, "buf", 4*units.BlockSize)

	// Runs fine before the cancel.
	done, err := d.GPUAccess(a, 0, 2*uint64(units.BlockSize), Write, 0)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	err = func() (err error) {
		defer runctl.Recover(&err)
		_, err = d.GPUAccess(a, 2*uint64(units.BlockSize), 2*uint64(units.BlockSize), Write, done)
		return err
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.Canceled {
		t.Fatalf("canceled run did not interrupt: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupt does not unwrap to context.Canceled: %v", err)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after cancel: %v", serr)
	}
}

// TestWallDeadlineKillsRunaway gives the watchdog an already-expired wall
// budget and loops driver operations the way a runaway simulation would;
// the watchdog must stop it within its wall-check stride.
func TestWallDeadlineKillsRunaway(t *testing.T) {
	ctl := runctl.New(nil, 1, 0) // 1ns: expired by the first wall check
	d := controlDriver(t, 8, ctl)
	a := mustAlloc(t, d, "buf", 2*units.BlockSize)

	err := func() (err error) {
		defer runctl.Recover(&err)
		var now sim.Time
		for i := 0; i < 10_000; i++ {
			now, err = d.GPUAccess(a, 0, uint64(a.Size()), Write, now)
			if err != nil {
				return err
			}
		}
		return nil
	}()
	i := runctl.AsInterrupt(err)
	if i == nil || i.Reason != runctl.WallDeadline {
		t.Fatalf("runaway loop was not killed by the watchdog: %v", err)
	}
	if serr := d.CheckNow(); serr != nil {
		t.Fatalf("sanitizer after watchdog kill: %v", serr)
	}
}

// TestInertControlIsByteIdentical runs the same workload with no control
// and with an attached-but-unlimited control and requires identical
// simulated timelines and traffic — the watchdog never perturbs results.
func TestInertControlIsByteIdentical(t *testing.T) {
	run := func(ctl *runctl.Control) (sim.Time, uint64) {
		d := controlDriver(t, 8, ctl)
		a := mustAlloc(t, d, "buf", 2*8*units.BlockSize)
		_, done := evictionWorkload(t, d, a)
		return done, d.Metrics().Traffic()
	}
	bareT, bareB := run(nil)
	ctlT, ctlB := run(runctl.New(context.Background(), 0, 0))
	if bareT != ctlT || bareB != ctlB {
		t.Fatalf("inert control changed the run: (%v,%d) vs (%v,%d)", bareT, bareB, ctlT, ctlB)
	}
}
