package core

import (
	"errors"
	"flag"
	"fmt"
	"testing"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/hostmem"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// The chaos harness: randomized workloads under randomized fault schedules,
// with the runtime sanitizer at stride 1 (via TestMain) and the strict
// lazy-discard protocol mode on. Unlike random_test.go, the generated
// program is protocol-correct — every lazily discarded allocation is
// prefetched before its next GPU use — so any sanitizer panic or silent
// data loss is a driver recovery bug, not an application one.
//
// After each program the harness audits the fault ledger: every injected
// migration/unmap failure must appear in the metrics as a retry (or, past
// the budget, a degradation), every buffer overflow as replayed rounds, and
// every poisoned chunk on a quarantine queue. Faults are never silently
// dropped.

var chaosSeed = flag.Uint64("chaos.seed", 0,
	"run the chaos harness with this single seed instead of the built-in set (CI matrix knob)")

func TestChaosRandomFaults(t *testing.T) {
	seeds := []uint64{1, 2, 3, 21, 22, 23, 31, 32, 33}
	if testing.Short() {
		seeds = seeds[:3]
	}
	if *chaosSeed != 0 {
		seeds = []uint64{*chaosSeed}
	}
	var runs runUse
	for _, seed := range seeds {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runs.add(runChaosProgram(t, seed))
		})
	}
	// Runs stay on under fault injection, and the sanitizer's run check
	// must see them: the full seed set has to take every run path. Fill
	// passes do not: an injector draws per block (runChaosProgram).
	t.Logf("%v", runs)
	if m := runs.missing(false); m != "" && len(seeds) > 1 {
		t.Errorf("no %s took the run path", m)
	}
}

// chaosSchedule derives a randomized fault schedule from the harness seed.
// All probabilities stay moderate so programs make progress; the injector
// seed differs from the workload seed so the two streams never correlate.
func chaosSchedule(rng *sim.RNG, seed uint64) *faultinject.Config {
	cfg := &faultinject.Config{
		Seed:          seed*2654435761 + 1,
		DMAFailProb:   float64(rng.Intn(16)) / 100, // 0 .. 0.15
		PeerFailProb:  float64(rng.Intn(16)) / 100,
		UnmapFailProb: float64(rng.Intn(11)) / 100, // 0 .. 0.10
		PoisonProb:    float64(rng.Intn(3)) / 500,  // 0 .. 0.004
	}
	if rng.Intn(2) == 0 {
		cfg.FaultBufferBlocks = rng.Intn(6) + 2 // 2 .. 7, smaller than batches
	}
	for _, link := range []faultinject.LinkID{faultinject.LinkPCIe, faultinject.LinkPeer} {
		if rng.Intn(2) == 0 {
			cfg.Windows = append(cfg.Windows, faultinject.Window{
				Link:   link,
				Start:  sim.Time(rng.Intn(50)) * sim.Millisecond,
				Dur:    sim.Time(rng.Intn(40)+10) * sim.Millisecond,
				Factor: 1 + float64(rng.Intn(70))/10,
			})
		}
	}
	return cfg
}

// runChaosProgram runs one seeded program under its fault schedule and
// returns what it served through runs.
func runChaosProgram(t *testing.T, seed uint64) runUse {
	t.Helper()
	rng := sim.NewRNG(seed)
	fcfg := chaosSchedule(rng, seed)
	t.Logf("seed %d schedule: %s", seed, fcfg.Describe())

	params := DefaultParams()
	params.PanicOnSilentReuse = true
	params.MaxMigrateRetries = rng.Intn(5)
	if seed%3 == 0 {
		params.RemoteAccessMigrateThreshold = 2
	}
	if seed%4 == 0 {
		params.ImmediateReclaim = true
	}
	link := pcie.Preset(pcie.Gen4)
	if seed%3 == 0 {
		link = pcie.Preset(pcie.GenNVLink)
	}
	d, err := New(Config{
		GPU:      gpudev.Generic(16 * units.BlockSize),
		PeerGPUs: []gpudev.Profile{gpudev.Generic(8 * units.BlockSize)},
		Host:     hostmem.New(2 * units.GiB),
		Link:     link,
		Params:   &params,
		Faults:   fcfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Params().CheckInvariantsEvery; got != 1 {
		t.Fatalf("seed %d: chaos driver checks invariants at stride %d, want 1", seed, got)
	}

	var allocs []*vaspace.Alloc
	// lazyDirty marks allocations with lazily discarded blocks that have not
	// been re-prefetched yet: GPU-accessing one without the mandatory
	// prefetch is the §5.2 protocol violation PanicOnSilentReuse escalates,
	// and the chaos program must stay protocol-correct.
	lazyDirty := map[*vaspace.Alloc]bool{}
	var now sim.Time
	advance := func(done sim.Time) {
		if done < now {
			t.Fatalf("seed %d: time went backwards: %v < %v", seed, done, now)
		}
		now = done
	}
	randAlloc := func() *vaspace.Alloc {
		if len(allocs) == 0 {
			return nil
		}
		return allocs[rng.Intn(len(allocs))]
	}
	poisonedChunks := func() int {
		n := 0
		for i := 0; i < d.NumGPUs(); i++ {
			n += d.DeviceAt(i).QueueLen(gpudev.QueuePoisoned)
		}
		return n
	}
	// tolerateOOM: poison permanently shrinks GPU capacity, so once chunks
	// are quarantined an out-of-memory result is a legitimate outcome, not
	// a harness failure.
	tolerateOOM := func(err error, what string, op int) bool {
		if err == nil {
			return false
		}
		if errors.Is(err, ErrOutOfGPUMemory) && poisonedChunks() > 0 {
			return true
		}
		t.Fatalf("seed %d op %d: %s: %v", seed, op, what, err)
		return true
	}

	ops := 300
	if testing.Short() {
		ops = 150
	}
	for op := 0; op < ops; op++ {
		switch rng.Intn(12) {
		case 0: // allocate
			if len(allocs) < 8 {
				size := units.Size(rng.Intn(5)+1) * units.BlockSize
				if rng.Intn(3) == 0 {
					size -= units.Size(rng.Intn(int(units.BlockSize) / 2))
				}
				a, err := d.AllocManaged("chaos", size)
				if err != nil {
					t.Fatalf("seed %d op %d: alloc: %v", seed, op, err)
				}
				allocs = append(allocs, a)
			}
		case 1: // free
			if len(allocs) > 2 {
				i := rng.Intn(len(allocs))
				if err := d.FreeManaged(allocs[i]); err != nil {
					t.Fatalf("seed %d op %d: free: %v", seed, op, err)
				}
				delete(lazyDirty, allocs[i])
				allocs = append(allocs[:i], allocs[i+1:]...)
			}
		case 2, 3: // GPU access (with the mandatory prefetch after lazy discard)
			if a := randAlloc(); a != nil {
				gpu := rng.Intn(d.NumGPUs())
				if lazyDirty[a] {
					done, err := d.PrefetchToGPUOn(gpu, a, 0, uint64(a.Size()), now)
					if tolerateOOM(err, "mandatory prefetch", op) {
						break
					}
					delete(lazyDirty, a)
					advance(done)
				}
				done, err := d.GPUAccessOn(gpu, a, 0, uint64(a.Size()), nil, AccessMode(rng.Intn(3)), now)
				if tolerateOOM(err, "gpu access", op) {
					break
				}
				advance(done)
			}
		case 4, 5: // CPU access
			if a := randAlloc(); a != nil {
				mode := AccessMode(rng.Intn(3))
				advance(cpuAccess(t, d, a, mode, now))
				if mode.writes() {
					// A host write revives every discarded block (§4.1).
					delete(lazyDirty, a)
				}
			}
		case 6: // prefetch to a random GPU
			if a := randAlloc(); a != nil {
				done, err := d.PrefetchToGPUOn(rng.Intn(d.NumGPUs()), a, 0, uint64(a.Size()), now)
				if tolerateOOM(err, "prefetch", op) {
					break
				}
				delete(lazyDirty, a)
				advance(done)
			}
		case 7: // prefetch to CPU
			if a := randAlloc(); a != nil {
				done, err := d.PrefetchToCPU(a, 0, uint64(a.Size()), now)
				if err != nil {
					t.Fatalf("seed %d op %d: cpu prefetch: %v", seed, op, err)
				}
				advance(done)
			}
		case 8: // eager discard
			if a := randAlloc(); a != nil {
				off := uint64(rng.Intn(a.NumBlocks())) * uint64(units.BlockSize)
				done, err := d.Discard(a, off, uint64(a.Size())-off, now)
				if err != nil {
					t.Fatalf("seed %d op %d: discard: %v", seed, op, err)
				}
				advance(done)
			}
		case 9: // lazy discard: the alloc now needs a prefetch before GPU use
			if a := randAlloc(); a != nil {
				done, err := d.DiscardLazy(a, 0, uint64(a.Size()), now)
				if err != nil {
					t.Fatalf("seed %d op %d: lazy discard: %v", seed, op, err)
				}
				lazyDirty[a] = true
				advance(done)
			}
		case 10: // advice
			if a := randAlloc(); a != nil {
				adv := []Advice{
					AdviseSetPreferredCPU, AdviseSetPreferredGPU, AdviseUnsetPreferred,
					AdviseSetReadMostly, AdviseUnsetReadMostly,
				}[rng.Intn(5)]
				done, err := d.MemAdvise(a, 0, uint64(a.Size()), adv, now)
				if err != nil {
					t.Fatalf("seed %d op %d: advise: %v", seed, op, err)
				}
				advance(done)
			}
		case 11: // device buffer churn + explicit copies (No-UVM path)
			if chunks, err := d.MallocDevice(units.BlockSize); err == nil {
				advance(d.ExplicitCopy(metricsDir(rng), units.BlockSize, now))
				d.FreeDevice(chunks)
			}
		}
		if err := d.CheckNow(); err != nil {
			t.Fatalf("seed %d op %d: sanitizer: %v", seed, op, err)
		}
	}

	// The fault ledger must balance: nothing injected may vanish.
	st := d.Injector().Stats()
	m := d.Metrics()
	if got := m.MigrateRetries(); got != st.DMAFailures+st.PeerFailures {
		t.Errorf("seed %d: injected %d DMA + %d peer failures but recorded %d migrate retries",
			seed, st.DMAFailures, st.PeerFailures, got)
	}
	if got := m.UnmapRetries(); got != st.UnmapFailures {
		t.Errorf("seed %d: injected %d unmap failures but recorded %d reissues",
			seed, st.UnmapFailures, got)
	}
	if st.Overflows > 0 && m.FaultReplays() == 0 {
		t.Errorf("seed %d: %d buffer overflows but no replayed fault rounds", seed, st.Overflows)
	}
	if chunks, _, _ := m.Poisoned(); int(chunks) != poisonedChunks() {
		t.Errorf("seed %d: %d poison events recorded but %d chunks quarantined",
			seed, chunks, poisonedChunks())
	}
	if err := d.CheckNow(); err != nil {
		t.Fatalf("seed %d: final sweep: %v", seed, err)
	}
	if d.fi != nil && d.fillPasses != 0 {
		t.Errorf("seed %d: a fault-injected driver took %d fill passes, want none", seed, d.fillPasses)
	}
	t.Logf("seed %d: %d migrate retries, %d unmap reissues, %d replays, %d degraded, %d poisoned",
		seed, m.MigrateRetries(), m.UnmapRetries(), m.FaultReplays(),
		func() int64 { n, _ := m.Degraded(); return n }(), poisonedChunks())
	return runUseOf(d)
}

func metricsDir(rng *sim.RNG) metrics.Direction {
	if rng.Intn(2) == 0 {
		return metrics.H2D
	}
	return metrics.D2H
}
