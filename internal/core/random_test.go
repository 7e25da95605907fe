package core

import (
	"testing"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/hostmem"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// TestRandomProgramInvariants drives the whole driver — multi-GPU,
// discards of both flavors, advice, prefetches, frees — with long random
// programs and checks global invariants after every operation:
//
//  1. Device queue bookkeeping is consistent (CheckInvariants).
//  2. Every GPU-resident block's chunk back-pointer is correct, on the
//     right device, and on a plausible queue.
//  3. Host accounting matches the blocks that claim host pages, and
//     pinned never exceeds resident.
//  4. Virtual time never goes backwards.
//  5. No operation fails (the GPUs always have evictable capacity).
//  6. The programs take every run path (run.go): accesses, discards and
//     recoveries, so the sanitizer's run check sees standing runs of both
//     shapes after every operation; and they take fill passes (fill.go).
func TestRandomProgramInvariants(t *testing.T) {
	var runs runUse
	for seed := uint64(1); seed <= 12; seed++ {
		seed := seed
		t.Run("", func(t *testing.T) {
			runs.add(runRandomProgram(t, seed))
		})
	}
	t.Logf("%v", runs)
	if m := runs.missing(true); m != "" {
		t.Errorf("no %s took its path", m)
	}
}

// runRandomProgram runs one seeded program and returns what it served
// through runs.
func runRandomProgram(t *testing.T, seed uint64) runUse {
	t.Helper()
	rng := sim.NewRNG(seed)
	host := hostmem.New(2 * units.GiB)
	params := DefaultParams()
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
		GPU:      gpudev.Generic(12 * units.BlockSize),
		PeerGPUs: []gpudev.Profile{gpudev.Generic(8 * units.BlockSize)},
		Host:     host,
		Link:     link,
		Params:   &params,
	})
	if err != nil {
		t.Fatal(err)
	}

	var allocs []*vaspace.Alloc
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

	for op := 0; op < 400; op++ {
		switch rng.Intn(12) {
		case 0: // allocate
			if len(allocs) < 8 {
				size := units.Size(rng.Intn(5)+1) * units.BlockSize
				if rng.Intn(3) == 0 {
					size -= units.Size(rng.Intn(int(units.BlockSize) / 2)) // unaligned tail
				}
				a, err := d.AllocManaged("r", size)
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
				allocs = append(allocs[:i], allocs[i+1:]...)
			}
		case 2, 3: // GPU access on a random device
			if a := randAlloc(); a != nil {
				gpu := rng.Intn(d.NumGPUs())
				mode := AccessMode(rng.Intn(3))
				done, err := d.GPUAccessOn(gpu, a, 0, uint64(a.Size()), nil, mode, now)
				if err != nil {
					t.Fatalf("seed %d op %d: gpu access: %v", seed, op, err)
				}
				advance(done)
			}
		case 4, 5: // CPU access
			if a := randAlloc(); a != nil {
				advance(cpuAccess(t, d, a, AccessMode(rng.Intn(3)), now))
			}
		case 6: // prefetch to a random GPU
			if a := randAlloc(); a != nil {
				done, err := d.PrefetchToGPUOn(rng.Intn(d.NumGPUs()), a, 0, uint64(a.Size()), now)
				if err != nil {
					t.Fatalf("seed %d op %d: prefetch: %v", seed, op, err)
				}
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
		case 8: // eager discard (possibly partial range)
			if a := randAlloc(); a != nil {
				off := uint64(rng.Intn(a.NumBlocks())) * uint64(units.BlockSize)
				length := uint64(a.Size()) - off
				done, err := d.Discard(a, off, length, now)
				if err != nil {
					t.Fatalf("seed %d op %d: discard: %v", seed, op, err)
				}
				advance(done)
			}
		case 9: // lazy discard
			if a := randAlloc(); a != nil {
				done, err := d.DiscardLazy(a, 0, uint64(a.Size()), now)
				if err != nil {
					t.Fatalf("seed %d op %d: lazy discard: %v", seed, op, err)
				}
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
		case 11: // device buffer churn on the primary GPU
			if chunks, err := d.MallocDevice(units.BlockSize); err == nil {
				d.FreeDevice(chunks)
			}
		}
		checkGlobalInvariants(t, d, allocs, seed, op)
	}
	return runUseOf(d)
}

func checkGlobalInvariants(t *testing.T, d *Driver, allocs []*vaspace.Alloc, seed uint64, op int) {
	t.Helper()
	for i := 0; i < d.NumGPUs(); i++ {
		if err := d.DeviceAt(i).CheckInvariants(); err != nil {
			t.Fatalf("seed %d op %d: GPU %d: %v", seed, op, i, err)
		}
	}
	var wantResident, wantPinned units.Size
	for _, a := range allocs {
		for _, b := range allBlocks(a) {
			if b.CPUHasPages {
				wantResident += b.Bytes()
			}
			if b.CPUPinned {
				wantPinned += b.Bytes()
				if !b.CPUHasPages {
					t.Fatalf("seed %d op %d: pinned without pages: %+v", seed, op, b)
				}
			}
			switch b.Residency {
			case vaspace.GPUResident:
				if !b.HasChunk() {
					t.Fatalf("seed %d op %d: GPU-resident without chunk", seed, op)
				}
				if d.owner(d.chunkOf(b)) != b {
					t.Fatalf("seed %d op %d: chunk owner back-pointer wrong", seed, op)
				}
				q := d.chunkOf(b).Queue()
				if q != gpudev.QueueUsed && q != gpudev.QueueDiscarded {
					t.Fatalf("seed %d op %d: resident chunk on queue %v", seed, op, q)
				}
				if b.Discarded != (q == gpudev.QueueDiscarded) {
					t.Fatalf("seed %d op %d: discard state %v but queue %v",
						seed, op, b.Discarded, q)
				}
				if b.GPUIndex < 0 || int(b.GPUIndex) >= d.NumGPUs() {
					t.Fatalf("seed %d op %d: GPU index %d", seed, op, b.GPUIndex)
				}
			case vaspace.CPUResident:
				if b.HasChunk() {
					t.Fatalf("seed %d op %d: CPU-resident with chunk", seed, op)
				}
				if !b.CPUHasPages {
					t.Fatalf("seed %d op %d: CPU-resident without pages", seed, op)
				}
			case vaspace.Untouched:
				if b.HasChunk() || b.CPUHasPages {
					t.Fatalf("seed %d op %d: untouched with backing: %+v", seed, op, b)
				}
			}
		}
	}
	if got := d.Host().Resident(); got != wantResident {
		t.Fatalf("seed %d op %d: host resident %d, blocks claim %d", seed, op, got, wantResident)
	}
	if got := d.Host().Pinned(); got != wantPinned {
		t.Fatalf("seed %d op %d: host pinned %d, blocks claim %d", seed, op, got, wantPinned)
	}
	_ = metrics.H2D
}
