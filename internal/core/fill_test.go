package core

import (
	"context"
	"fmt"
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// fillOutcome is what driveFills observed.
type fillOutcome struct {
	states    []string
	times     []sim.Time
	polls     uint64
	countdown int
	fills     uint64
	counts    string                      // the collector's counts at the end or at the trip
	evictions [metrics.EvictLRU + 1]int64 // by metrics.EvictSource
	trip      *runctl.Interrupt
	progress  []runctl.Progress
}

// driveFills runs TestFillPassesMatchPerBlockLoop's program: on the
// per-block loops if perBlock, under a sim budget unless it is 0, recording
// into tr if it is not nil. A 16-block GPU serves four buffers:
//
//   - big, 22 blocks, leaves the GPU each round (PrefetchToCPU), two of its
//     blocks are discarded on the host, and a kernel access faults it back
//     in: a fill pass of transfers and zero-fills that evicts other
//     buffers' chunks and then, being larger than the GPU, its own;
//   - a, 7 blocks less a page, is reclaimed to untouched by big's pass,
//     then partly written and read from the host, one host-resident block
//     discarded, and accessed: a fill pass mixing untouched, host-resident
//     and discarded-on-host blocks, one of them read-mostly. It is then
//     discarded whole, eagerly or lazily by round, for big's pass to
//     reclaim;
//   - c, 4 blocks, is prefetched and accessed, and discarded in even
//     rounds; big's pass reclaims or evicts it, so the closing prefetch is
//     a fill pass of zero-fills or of transfers;
//   - pg, 2 blocks preferring the GPU, is written early in even rounds, so
//     that its chunks head the LRU queue when big's pass evicts and the
//     victim search walks past them, and in odd rounds just before big's
//     pass, behind c's live chunks, which go first.
//
// Kernel accesses visit whole buffers in address order or, in two rounds
// of three, in a shuffled order as a Scatter pass does.
func driveFills(t *testing.T, perBlock bool, budget sim.Time, tr *trace.Recorder) fillOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var o fillOutcome
	ctl := runctl.New(ctx, 0, budget)
	ctl.SetObserver(func(p runctl.Progress) { o.progress = append(o.progress, p) })
	d, err := New(Config{
		GPU:     gpudev.Generic(16 * units.BlockSize),
		Link:    pcie.Preset(pcie.Gen4),
		Control: ctl,
		Trace:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	d.perBlock = perBlock
	bs := uint64(units.BlockSize)
	big := mustAlloc(t, d, "big", 22*units.BlockSize)
	a := mustAlloc(t, d, "a", 7*units.BlockSize-units.PageSize)
	pg := mustAlloc(t, d, "pg", 2*units.BlockSize)
	c := mustAlloc(t, d, "c", 4*units.BlockSize)
	bufs := []*vaspace.Alloc{big, a, pg, c}
	size := func(x *vaspace.Alloc) uint64 { return uint64(x.Size()) }
	rng := sim.NewRNG(1)
	var now sim.Time
	step := func(done sim.Time, err error) error {
		now = done
		if budget == 0 {
			o.states = append(o.states, driverState(d, bufs))
			o.times = append(o.times, now)
		}
		return err
	}
	err = func() (err error) {
		defer runctl.Recover(&err)
		if err := step(d.MemAdvise(pg, 0, size(pg), AdviseSetPreferredGPU, now)); err != nil {
			return err
		}
		if err := step(d.MemAdvise(a, 2*bs, bs, AdviseSetReadMostly, now)); err != nil {
			return err
		}
		for r := 0; r < 12; r++ {
			discard := d.Discard
			if r%2 == 1 {
				discard = d.DiscardLazy
			}
			mode := [...]AccessMode{Write, Read, ReadWrite}[r%3]
			kernel := func(x *vaspace.Alloc) (sim.Time, error) {
				var order []int
				if r%3 != 1 {
					order = rng.Perm(x.NumBlocks())
				}
				return d.GPUAccessOn(0, x, 0, size(x), order, mode, now)
			}
			skip := func() (sim.Time, error) { return now, nil }
			writePG := func() (sim.Time, error) { return d.GPUAccess(pg, 0, size(pg), Write, now) }
			discardC := func() (sim.Time, error) { return discard(c, 0, size(c), now) }
			pgEarly, pgLate := writePG, skip
			if r%2 == 1 {
				pgEarly, pgLate, discardC = skip, writePG, skip
			}
			for _, op := range []func() (sim.Time, error){
				func() (sim.Time, error) { return d.PrefetchToCPU(big, 0, size(big), now) },
				func() (sim.Time, error) { return discard(big, 3*bs, 2*bs, now) },
				pgEarly,
				func() (sim.Time, error) { return d.CPUAccessRange(a, 0, 3*bs, Write, now) },
				func() (sim.Time, error) { return d.CPUAccessRange(a, 4*bs, bs, Read, now) },
				func() (sim.Time, error) { return discard(a, bs, bs, now) },
				func() (sim.Time, error) { return kernel(a) },
				func() (sim.Time, error) { return d.PrefetchToGPU(c, 0, size(c), now) },
				func() (sim.Time, error) { return kernel(c) },
				discardC,
				func() (sim.Time, error) { return discard(a, 0, size(a), now) },
				pgLate,
				func() (sim.Time, error) { return kernel(big) },
				func() (sim.Time, error) { return d.PrefetchToGPU(c, 0, size(c), now) },
			} {
				if err := step(op()); err != nil {
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
	o.polls, o.countdown, o.fills = d.pubTick, d.blockPolls, d.fillPasses
	o.counts = collectorState(d)
	for src := range o.evictions {
		o.evictions[src] = d.Metrics().Evictions(metrics.EvictSource(src))
	}
	return o
}

// TestFillPassesMatchPerBlockLoop drives driveFills's program twice: with
// fill passes (and runs), and with every pass on the generic loop
// (Driver.perBlock). After every operation both drivers must hold the same
// queues, chunks, blocks and collector counts and have returned the same
// time; at the end they must have polled equally often, published the same
// progress and kept the same countdown; and a sim budget anywhere in the
// program must trip both at the same checkpoint and sim time, with the same
// counts in the collector. A traced driver must take no fill pass.
func TestFillPassesMatchPerBlockLoop(t *testing.T) {
	perBlock, fills := driveFills(t, true, 0, nil), driveFills(t, false, 0, nil)
	t.Logf("%d fill passes; evictions free/unused/discarded/lru %v", fills.fills, fills.evictions)
	if perBlock.fills != 0 || fills.fills == 0 {
		t.Fatalf("per-block driver took %d fill passes and the other %d: want none, then some", perBlock.fills, fills.fills)
	}
	if fills.evictions[metrics.EvictDiscarded] == 0 || fills.evictions[metrics.EvictLRU] == 0 {
		t.Fatalf("evictions free/unused/discarded/lru %v: the program must reclaim discarded chunks and evict LRU ones", fills.evictions)
	}
	for k := range perBlock.states {
		if fills.times[k] != perBlock.times[k] {
			t.Fatalf("operation %d returned %v with fill passes, %v through the per-block loop", k, fills.times[k], perBlock.times[k])
		}
		if fills.states[k] != perBlock.states[k] {
			t.Fatalf("operation %d left different state with fill passes:\n%s\nthrough the per-block loop:\n%s",
				k, fills.states[k], perBlock.states[k])
		}
	}
	if fills.polls != perBlock.polls || fills.countdown != perBlock.countdown {
		t.Fatalf("fill passes polled %d times with countdown %d, the per-block loop %d times with countdown %d",
			fills.polls, fills.countdown, perBlock.polls, perBlock.countdown)
	}
	if fmt.Sprint(fills.progress) != fmt.Sprint(perBlock.progress) {
		t.Fatalf("fill passes published progress %v; the per-block loop %v", fills.progress, perBlock.progress)
	}
	end := perBlock.times[len(perBlock.times)-1]
	for k := sim.Time(1); k < 16; k++ {
		budget := end * k / 16
		want, got := driveFills(t, true, budget, nil), driveFills(t, false, budget, nil)
		if want.trip == nil || got.trip == nil || got.trip.Reason != want.trip.Reason ||
			got.trip.Op != want.trip.Op || got.trip.SimTime != want.trip.SimTime || got.polls != want.polls {
			t.Errorf("budget %v: fill passes tripped %+v after %d polls, per-block loop %+v after %d polls",
				budget, got.trip, got.polls, want.trip, want.polls)
		}
		if got.counts != want.counts {
			t.Errorf("budget %v: at the trip the collector held\n%s\nwith fill passes, and\n%s\nthrough the per-block loop",
				budget, got.counts, want.counts)
		}
	}
	if traced := driveFills(t, false, 0, trace.NewRecorder()); traced.fills != 0 {
		t.Errorf("a traced driver took %d fill passes, want none", traced.fills)
	}
}
