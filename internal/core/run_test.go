package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// TestRunAccessIsConstantTime requires a whole-buffer kernel access through
// a standing resident run to cost O(1) and to allocate nothing. Two
// resident buffers of n blocks each are accessed in turn, so every access
// relinks its stretch to the MRU end; an access to 4 096-block buffers must
// cost under 8× one to 16-block buffers, where the per-block loop would
// cost about 256×. The drivers are unarmed, and their sanitizer stride is
// set past the test's operation count so the O(blocks) sweep TestMain would
// otherwise force after every operation stays out of the timing.
func TestRunAccessIsConstantTime(t *testing.T) {
	cost := func(blocks int) time.Duration {
		params := DefaultParams()
		params.CheckInvariantsEvery = 1 << 30
		d, err := New(Config{GPU: gpudev.Generic(units.Size(2*blocks) * units.BlockSize), Params: &params})
		if err != nil {
			t.Fatal(err)
		}
		a := mustAlloc(t, d, "a", units.Size(blocks)*units.BlockSize)
		b := mustAlloc(t, d, "b", units.Size(blocks)*units.BlockSize)
		size := uint64(a.Size())
		// A write pass forms each run with every host copy stale, so later
		// writes take the run path too.
		gpuAccess(t, d, a, Write)
		gpuAccess(t, d, b, Write)
		if !a.Resident.On || !a.Resident.Stale || !b.Resident.On || !b.Resident.Stale {
			t.Fatalf("%d blocks: write passes left runs %+v and %+v, want both standing and stale", blocks, a.Resident, b.Resident)
		}
		pair := func(mode AccessMode) {
			if _, err := d.GPUAccess(a, 0, size, mode, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.GPUAccess(b, 0, size, mode, 0); err != nil {
				t.Fatal(err)
			}
		}
		before := d.runAccesses
		if n := testing.AllocsPerRun(100, func() { pair(ReadWrite) }); n != 0 {
			t.Errorf("%d blocks: %v allocations per run access pair, want 0", blocks, n)
		}
		const rounds, perRound = 7, 2000
		best := time.Duration(1<<63 - 1)
		for r := 0; r < rounds; r++ {
			start := time.Now() //uvmlint:ignore simdet -- the test measures the simulator's own host cost
			for i := 0; i < perRound; i++ {
				pair(Read)
			}
			if el := time.Since(start); el < best { //uvmlint:ignore simdet -- the test measures the simulator's own host cost
				best = el
			}
		}
		// AllocsPerRun makes one warm-up call besides its 100 runs.
		if got, want := d.runAccesses-before, uint64(2*(101+rounds*perRound)); got != want {
			t.Fatalf("%d blocks: %d accesses went through a run, want all %d", blocks, got, want)
		}
		if err := d.CheckNow(); err != nil {
			t.Fatal(err)
		}
		return best
	}
	small, large := cost(16), cost(4096)
	t.Logf("best of 7 rounds of 2000 access pairs: 16 blocks %v, 4096 blocks %v (%.2f×)",
		small, large, float64(large)/float64(small))
	if large >= 8*small {
		t.Errorf("a run access to 4096 blocks costs %v, at least 8× the %v of one to 16 blocks: not O(1)", large, small)
	}
}

// TestRunPollsLikePerBlockLoop drives the same whole-buffer prefetches and
// kernel accesses under a live run control twice: through resident runs,
// and with a trace recorder attached, which keeps the per-block loop. Both
// drivers must poll the control equally often, publish the same progress
// (op, sim time and check count), and end with the same block countdown,
// so SSE progress and cancel latency do not depend on the path; and a sim
// budget anywhere in the sequence must trip both at the same checkpoint and
// sim time. The 45-block buffer's accesses poll inside the run, and one
// iteration polls 7 times, so the progress published every 64th poll lands
// on every poll of an iteration in turn.
func TestRunPollsLikePerBlockLoop(t *testing.T) {
	type outcome struct {
		polls     uint64
		countdown int
		runs      uint64
		end       sim.Time
		trip      *runctl.Interrupt
		progress  []runctl.Progress
	}
	drive := func(traced bool, budget sim.Time) outcome {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var tr *trace.Recorder
		if traced {
			tr = trace.NewRecorder()
		}
		var o outcome
		ctl := runctl.New(ctx, 0, budget)
		ctl.SetObserver(func(p runctl.Progress) { o.progress = append(o.progress, p) })
		d, err := New(Config{
			GPU:     gpudev.Generic(64 * units.BlockSize),
			Link:    pcie.Preset(pcie.Gen4),
			Control: ctl,
			Trace:   tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		bufs := []*vaspace.Alloc{
			mustAlloc(t, d, "a", 45*units.BlockSize),
			mustAlloc(t, d, "b", 13*units.BlockSize),
			mustAlloc(t, d, "c", 5*units.BlockSize),
		}
		err = func() (err error) {
			defer runctl.Recover(&err)
			for i := 0; i < 200; i++ {
				for j, x := range bufs {
					size := uint64(x.Size())
					if j < 2 {
						if o.end, err = d.PrefetchToGPU(x, 0, size, o.end); err != nil {
							return err
						}
					}
					mode := [...]AccessMode{Write, Read, ReadWrite}[i%3]
					if o.end, err = d.GPUAccess(x, 0, size, mode, o.end); err != nil {
						return err
					}
				}
			}
			return nil
		}()
		o.trip = runctl.AsInterrupt(err)
		if err != nil && o.trip == nil {
			t.Fatal(err)
		}
		if err := d.CheckNow(); err != nil {
			t.Fatal(err)
		}
		o.polls, o.countdown, o.runs = d.pubTick, d.blockPolls, d.runAccesses
		return o
	}
	perBlock, runs := drive(true, 0), drive(false, 0)
	if perBlock.runs != 0 || runs.runs == 0 {
		t.Fatalf("traced driver took %d run accesses and untraced %d: want 0 and some", perBlock.runs, runs.runs)
	}
	if runs.end != perBlock.end || runs.polls != perBlock.polls || runs.countdown != perBlock.countdown {
		t.Fatalf("runs ended at %v after %d polls with countdown %d; the per-block loop at %v after %d polls with countdown %d",
			runs.end, runs.polls, runs.countdown, perBlock.end, perBlock.polls, perBlock.countdown)
	}
	if fmt.Sprint(runs.progress) != fmt.Sprint(perBlock.progress) {
		t.Fatalf("runs published progress %v; the per-block loop %v", runs.progress, perBlock.progress)
	}
	for k := sim.Time(1); k < 16; k++ {
		budget := perBlock.end * k / 16
		want, got := drive(true, budget), drive(false, budget)
		if want.trip == nil || got.trip == nil || got.trip.Reason != want.trip.Reason ||
			got.trip.Op != want.trip.Op || got.trip.SimTime != want.trip.SimTime || got.polls != want.polls {
			t.Errorf("budget %v: run path tripped %+v after %d polls, per-block loop %+v after %d polls",
				budget, got.trip, got.polls, want.trip, want.polls)
		}
	}
}

// TestVisitOrderMustStayInSpan: a Scatter pass's visit order may name only
// blocks of the access's range. A bad order panics in the access's fault
// pass, before any block changes, so it can never reach a block outside the
// range.
func TestVisitOrderMustStayInSpan(t *testing.T) {
	d := testDriver(t, 8)
	a := mustAlloc(t, d, "a", 4*units.BlockSize)
	bs := uint64(units.BlockSize)
	if _, err := d.GPUAccessOn(0, a, bs, 2*bs, []int{2, 1}, Write, 0); err != nil {
		t.Fatalf("in-span order refused: %v", err)
	}
	b3 := *a.Block(3)
	for _, order := range [][]int{{1, 3}, {0, 2}, {-1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("order %v outside the span [1,2] did not panic", order)
				}
			}()
			d.GPUAccessOn(0, a, bs, 2*bs, order, Write, 0)
		}()
	}
	if b := a.Block(0); b.Residency != vaspace.Untouched {
		t.Errorf("block 0 outside the accessed span is %v, want untouched", b.Residency)
	}
	if *a.Block(3) != b3 {
		t.Errorf("block 3 outside the accessed span changed: %+v", *a.Block(3))
	}
}
