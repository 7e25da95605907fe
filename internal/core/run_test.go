package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
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

// pollOutcome is what drivePolls observed.
type pollOutcome struct {
	polls     uint64
	countdown int
	runs      uint64
	end       sim.Time
	trip      *runctl.Interrupt
	progress  []runctl.Progress
}

// drivePolls runs TestRunPollsLikePerBlockLoop's program: whole-buffer
// prefetches and kernel accesses over three buffers, on the per-block loop
// if perBlock, under a sim budget unless it is 0, recording into tr if it
// is not nil.
func drivePolls(t *testing.T, perBlock bool, budget sim.Time, tr *trace.Recorder) pollOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var o pollOutcome
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
	d.perBlock = perBlock
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

// TestRunPollsLikePerBlockLoop drives the same whole-buffer prefetches and
// kernel accesses under a live run control twice: through resident runs,
// and with the per-block loop forced (Driver.perBlock). Both drivers must
// poll the control equally often, publish the same progress
// (op, sim time and check count), and end with the same block countdown,
// so SSE progress and cancel latency do not depend on the path; and a sim
// budget anywhere in the sequence must trip both at the same checkpoint and
// sim time. The 45-block buffer's accesses poll inside the run, and one
// iteration polls 7 times, so the progress published every 64th poll lands
// on every poll of an iteration in turn.
func TestRunPollsLikePerBlockLoop(t *testing.T) {
	drive := func(perBlock bool, budget sim.Time) pollOutcome { return drivePolls(t, perBlock, budget, nil) }
	perBlock, runs := drive(true, 0), drive(false, 0)
	if perBlock.runs != 0 || runs.runs == 0 {
		t.Fatalf("per-block driver took %d run accesses and the other %d: want 0 and some", perBlock.runs, runs.runs)
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

// runUse counts what a driver served through runs: whole-buffer accesses,
// discards and prefetch recoveries.
type runUse struct{ accesses, discards, recoveries uint64 }

func runUseOf(d *Driver) runUse { return runUse{d.runAccesses, d.runDiscards, d.runRecoveries} }

func (u *runUse) add(v runUse) {
	u.accesses += v.accesses
	u.discards += v.discards
	u.recoveries += v.recoveries
}

func (u runUse) String() string {
	return fmt.Sprintf("%d accesses, %d discards and %d recoveries served through runs", u.accesses, u.discards, u.recoveries)
}

// missing names the run paths u never took, or returns "" if it took all.
func (u runUse) missing() string {
	var m []string
	for _, p := range []struct {
		n    uint64
		name string
	}{{u.accesses, "access"}, {u.discards, "discard"}, {u.recoveries, "recovery"}} {
		if p.n == 0 {
			m = append(m, p.name)
		}
	}
	return strings.Join(m, ", ")
}

// driverState renders everything a run path could change: every device's
// queues in order, every chunk's per-use fields, every block of bufs, and
// the collector's exact counts.
func driverState(d *Driver, bufs []*vaspace.Alloc) string {
	var s strings.Builder
	for g := 0; g < d.NumGPUs(); g++ {
		dev := d.DeviceAt(g)
		for k := gpudev.QueueFree; k <= gpudev.QueuePoisoned; k++ {
			fmt.Fprintf(&s, "GPU %d %v: %v\n", g, k, dev.AppendQueueIDs(nil, k))
		}
		dev.EachChunk(func(c *gpudev.Chunk) bool {
			fmt.Fprintf(&s, "GPU %d chunk %d: %v, owner %s, prepared %d, unmap on reclaim %v, device buffer %v\n",
				g, c.ID(), c.Queue(), ownerName(c.Owner), c.PreparedPages, c.NeedsUnmapOnReclaim, c.DeviceBuffer)
			return true
		})
	}
	for _, a := range bufs {
		for i := 0; i < a.NumBlocks(); i++ {
			b := *a.Block(i)
			c := chunkID(b.Chunk)
			b.Alloc, b.Chunk = nil, nil
			fmt.Fprintf(&s, "%s block %d: %+v on %s\n", a.Name(), i, b, c)
		}
	}
	m := d.Metrics()
	for _, dir := range []metrics.Direction{metrics.H2D, metrics.D2H} {
		for _, cause := range []metrics.Cause{metrics.CauseFault, metrics.CausePrefetch, metrics.CauseEviction, metrics.CauseMemcpy, metrics.CauseRemote} {
			fmt.Fprintf(&s, "%v/%v: %d bytes in %d ops\n", dir, cause, m.Bytes(dir, cause), m.Ops(dir, cause))
		}
	}
	for _, src := range []metrics.EvictSource{metrics.EvictFree, metrics.EvictUnused, metrics.EvictDiscarded, metrics.EvictLRU} {
		fmt.Fprintf(&s, "evictions %v: %d\n", src, m.Evictions(src))
	}
	h2d, d2h := m.Saved()
	fb, fblocks := m.FaultBatches()
	zb, zp := m.ZeroFills()
	dc, dblocks := m.Discards()
	fmt.Fprintf(&s, "saved %d/%d, faults %d/%d, zero-fills %d/%d, unmaps %d, maps %d, discards %d/%d, unmap retries %d\n",
		h2d, d2h, fb, fblocks, zb, zp, m.Unmaps(), m.Maps(), dc, dblocks, m.UnmapRetries())
	return s.String()
}

// discardOutcome is what driveDiscards observed.
type discardOutcome struct {
	states    []string
	times     []sim.Time
	polls     uint64
	countdown int
	accesses  uint64
	discards  uint64
	recovers  uint64
	trip      *runctl.Interrupt
	progress  []runctl.Progress
}

// discardScenario is one platform driveDiscards runs its program on.
type discardScenario struct {
	name      string
	gpuBlocks int
	lazy      bool
	gpu       int // the GPU the program runs on; 1 is a peer
}

// discardScenarios are the platforms of TestDiscardedRunsMatchPerBlockLoop.
var discardScenarios = []discardScenario{
	{"eager fitting", 64, false, 0},
	{"lazy fitting", 64, true, 0},
	{"eager oversubscribed", 38, false, 0},
	{"lazy oversubscribed", 38, true, 0},
	{"eager on a peer", 64, false, 1},
	{"lazy on a peer", 64, true, 1},
}

// driveDiscards runs TestDiscardedRunsMatchPerBlockLoop's program on sc: on
// the per-block loops if perBlock, under a sim budget unless it is 0,
// recording into tr if it is not nil.
func driveDiscards(t *testing.T, sc discardScenario, perBlock bool, budget sim.Time, tr *trace.Recorder) discardOutcome {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var o discardOutcome
	ctl := runctl.New(ctx, 0, budget)
	ctl.SetObserver(func(p runctl.Progress) { o.progress = append(o.progress, p) })
	gpu := gpudev.Generic(units.Size(sc.gpuBlocks) * units.BlockSize)
	cfg := Config{GPU: gpu, Link: pcie.Preset(pcie.Gen4), Control: ctl, Trace: tr}
	if sc.gpu == 1 {
		cfg.PeerGPUs = []gpudev.Profile{gpu}
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.perBlock = perBlock
	bufs := []*vaspace.Alloc{
		mustAlloc(t, d, "a", 23*units.BlockSize),
		mustAlloc(t, d, "b", 13*units.BlockSize),
		mustAlloc(t, d, "c", 9*units.BlockSize-units.PageSize),
	}
	discard := d.Discard
	if sc.lazy {
		discard = d.DiscardLazy
	}
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
		for i := 0; i < 40; i++ {
			for j, x := range bufs {
				size := uint64(x.Size())
				to := sc.gpu
				if (i+j)%6 == 5 {
					to = 0 // away from the peer, and back on the access
				}
				if err := step(d.PrefetchToGPUOn(to, x, 0, size, now)); err != nil {
					return err
				}
				mode := [...]AccessMode{Write, Read, ReadWrite}[(i+j)%3]
				if err := step(d.GPUAccessOn(sc.gpu, x, 0, size, nil, mode, now)); err != nil {
					return err
				}
				switch (i + j) % 7 {
				case 2: // the buffer stays live until its next use
					continue
				case 4: // a host access clears the run
					if err := step(d.CPUAccessRange(x, 0, size, Read, now)); err != nil {
						return err
					}
				}
				if err := step(discard(x, 0, size, now)); err != nil {
					return err
				}
				if (i+j)%5 == 1 { // again, whole and in part
					if err := step(discard(x, 0, size, now)); err != nil {
						return err
					}
					if err := step(discard(x, uint64(units.BlockSize), size-uint64(units.BlockSize), now)); err != nil {
						return err
					}
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
	o.polls, o.countdown = d.pubTick, d.blockPolls
	o.accesses, o.discards, o.recovers = d.runAccesses, d.runDiscards, d.runRecoveries
	return o
}

// TestDiscardedRunsMatchPerBlockLoop drives the same whole-buffer discard →
// prefetch → kernel program, eager and lazy, on a GPU that fits its three
// buffers, on one they oversubscribe, and on a peer GPU whose buffers a
// prefetch to the primary sometimes moves away, under a live run control,
// twice: through runs, and with the per-block loops forced
// (Driver.perBlock). After every operation both drivers must hold the same
// queues, chunks, blocks and collector counts and have returned the same
// time; at the end they must have polled equally often, published the same
// progress and kept the same countdown; and a sim budget anywhere in the
// program must trip both at the same checkpoint and sim time. The program
// also discards a discarded buffer again, whole and in part, and touches
// buffers from the host, which clears their runs.
func TestDiscardedRunsMatchPerBlockLoop(t *testing.T) {
	drive := func(sc discardScenario, perBlock bool, budget sim.Time) discardOutcome {
		return driveDiscards(t, sc, perBlock, budget, nil)
	}
	for _, sc := range discardScenarios {
		t.Run(sc.name, func(t *testing.T) {
			perBlock, runs := drive(sc, true, 0), drive(sc, false, 0)
			t.Logf("%d run discards, %d run recoveries", runs.discards, runs.recovers)
			if perBlock.discards+perBlock.recovers != 0 || runs.discards == 0 || runs.recovers == 0 {
				t.Fatalf("per-block driver took %d run discards and %d recoveries, the other %d and %d: want none, then some of each",
					perBlock.discards, perBlock.recovers, runs.discards, runs.recovers)
			}
			for k := range perBlock.states {
				if runs.times[k] != perBlock.times[k] {
					t.Fatalf("operation %d returned %v through runs, %v through the per-block loop", k, runs.times[k], perBlock.times[k])
				}
				if runs.states[k] != perBlock.states[k] {
					t.Fatalf("operation %d left different state through runs:\n%s\nthrough the per-block loop:\n%s",
						k, runs.states[k], perBlock.states[k])
				}
			}
			if runs.polls != perBlock.polls || runs.countdown != perBlock.countdown {
				t.Fatalf("runs polled %d times with countdown %d, the per-block loop %d times with countdown %d",
					runs.polls, runs.countdown, perBlock.polls, perBlock.countdown)
			}
			if fmt.Sprint(runs.progress) != fmt.Sprint(perBlock.progress) {
				t.Fatalf("runs published progress %v; the per-block loop %v", runs.progress, perBlock.progress)
			}
			end := perBlock.times[len(perBlock.times)-1]
			for k := sim.Time(1); k < 16; k++ {
				budget := end * k / 16
				want, got := drive(sc, true, budget), drive(sc, false, budget)
				if want.trip == nil || got.trip == nil || got.trip.Reason != want.trip.Reason ||
					got.trip.Op != want.trip.Op || got.trip.SimTime != want.trip.SimTime || got.polls != want.polls {
					t.Errorf("budget %v: run path tripped %+v after %d polls, per-block loop %+v after %d polls",
						budget, got.trip, got.polls, want.trip, want.polls)
				}
			}
		})
	}
}

// TestTracedRunsRecordLikePerBlockLoop runs the programs of
// TestRunPollsLikePerBlockLoop and TestDiscardedRunsMatchPerBlockLoop with a
// trace recorder attached, through runs and on the per-block loops: the
// traced driver must take resident runs, and record exactly the events,
// and so the classification, that the per-block loops record.
func TestTracedRunsRecordLikePerBlockLoop(t *testing.T) {
	check := func(name string, drive func(perBlock bool, tr *trace.Recorder) (runs uint64)) {
		want, got := trace.NewRecorder(), trace.NewRecorder()
		if n := drive(true, want); n != 0 {
			t.Fatalf("%s: the per-block driver took %d run accesses", name, n)
		}
		if n := drive(false, got); n == 0 {
			t.Fatalf("%s: the traced driver took no run access", name)
		}
		if w, g := want.Events(), got.Events(); !slices.Equal(g, w) {
			i := 0
			for i < min(len(w), len(g)) && w[i] == g[i] {
				i++
			}
			t.Fatalf("%s: runs recorded %d events and the per-block loop %d; they differ first at event %d", name, len(g), len(w), i)
		}
		if w, g := trace.Analyze(want), trace.Analyze(got); g != w {
			t.Fatalf("%s: runs classify as %+v, the per-block loop as %+v", name, g, w)
		}
	}
	check("prefetch and kernel", func(perBlock bool, tr *trace.Recorder) uint64 {
		return drivePolls(t, perBlock, 0, tr).runs
	})
	for _, sc := range discardScenarios {
		check(sc.name, func(perBlock bool, tr *trace.Recorder) uint64 {
			return driveDiscards(t, sc, perBlock, 0, tr).accesses
		})
	}
}

// TestDiscardedRunAllocatesNothing: discarding a resident buffer through
// its run and recovering it with a prefetch, eager or lazy, allocates
// nothing.
func TestDiscardedRunAllocatesNothing(t *testing.T) {
	for _, lazy := range []bool{false, true} {
		params := DefaultParams()
		params.CheckInvariantsEvery = 1 << 30
		d, err := New(Config{GPU: gpudev.Generic(64 * units.BlockSize), Params: &params})
		if err != nil {
			t.Fatal(err)
		}
		a := mustAlloc(t, d, "a", 48*units.BlockSize)
		size := uint64(a.Size())
		gpuAccess(t, d, a, Write)
		discard := d.Discard
		if lazy {
			discard = d.DiscardLazy
		}
		pair := func() {
			if _, err := discard(a, 0, size, 0); err != nil {
				t.Fatal(err)
			}
			if _, err := d.PrefetchToGPU(a, 0, size, 0); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("lazy=%v: %v allocations per discard and recovery, want 0", lazy, n)
		}
		// AllocsPerRun makes one warm-up call besides its 100 runs.
		if d.runDiscards != 101 || d.runRecoveries != 101 {
			t.Errorf("lazy=%v: %d run discards and %d run recoveries, want 101 of each", lazy, d.runDiscards, d.runRecoveries)
		}
		if err := d.CheckNow(); err != nil {
			t.Fatal(err)
		}
	}
}
