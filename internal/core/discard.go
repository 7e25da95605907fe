package core

import (
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Discard implements the eager UvmDiscard directive (§5.1) over
// [off, off+length) of allocation a: the data values in the range are dead,
// and all virtual mappings are destroyed immediately so any re-access
// faults and informs the driver. Returns the completion time of the driver
// work (PTE clears and TLB invalidations acknowledged by the GPU).
func (d *Driver) Discard(a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	return d.discard(a, off, length, now, false)
}

// DiscardLazy implements UvmDiscardLazy (§5.2): the software dirty bits of
// the covered range are cleared and mappings are left intact. The program
// must issue a prefetch before re-using the range; reclaiming a lazily
// discarded chunk pays the deferred unmap cost (§5.6).
func (d *Driver) DiscardLazy(a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	return d.discard(a, off, length, now, true)
}

func (d *Driver) discard(a *vaspace.Alloc, off, length uint64, now sim.Time, lazy bool) (sim.Time, error) {
	d.checkpoint("Discard", now)
	// The driver prefers whole 2 MiB regions and ignores partial ones to
	// avoid splitting big mappings (§5.4); the AllowPartialDiscard
	// ablation splits instead.
	first, last, err := a.BlockSpan(off, length, true)
	if err != nil {
		return now, err
	}
	cur := now
	covered := 0
	whole := first == 0 && last == a.NumBlocks()-1 && d.discardsRuns()
	// A discard of the whole allocation over its resident run moves the
	// run to the discarded queue at once (run.go).
	if r := a.Resident; r.On && !r.Discarded && whole {
		cur = d.discardRun(a, cur, lazy)
		covered = a.NumBlocks()
	} else {
		d.clearRun(a)
		// A buffer a Scatter or partial access made resident holds no run.
		// If every block is a clean hit on one GPU with its chunk fully
		// prepared, the loop still leaves the discarded run's shape: it
		// pushes each chunk to the discarded tail in block order, so the
		// stretch is contiguous, and the run can stand. Each block is
		// checked just before its own discard, which changes no other.
		stand, gpu, stale := whole, int(a.Block(0).GPUIndex), true
		for i := first; i <= last; i++ {
			b := a.Block(i)
			if stand {
				stand = cleanHit(b, gpu) && d.chunkOf(b).PreparedPages == gpudev.FullyPrepared
				stale = stale && b.CPUStale
			}
			var ok bool
			cur, ok = d.discardBlock(b, cur, lazy)
			if ok {
				covered++
			}
		}
		if stand {
			a.Resident = vaspace.ResidentRun{On: true, GPU: gpu, Stale: stale, Discarded: true, Lazy: lazy}
		}
	}
	if d.p.AllowPartialDiscard {
		cur = d.discardPartialEdges(a, off, length, cur, lazy)
	}
	d.t.AddDiscard(covered)
	if lazy {
		d.verify("DiscardLazy")
	} else {
		d.verify("Discard")
	}
	return cur, nil
}

// discardBlock applies the directive to one fully covered block. Returns
// whether the block newly became discarded.
func (d *Driver) discardBlock(b *vaspace.Block, now sim.Time, lazy bool) (sim.Time, bool) {
	if b.Discarded {
		return now, false // idempotent
	}
	cur := now
	switch b.Residency {
	case vaspace.Untouched:
		// Nothing to skip: no physical data exists anywhere.
		return cur, false
	case vaspace.CPUResident:
		b.Discarded = true
		b.LazyDiscard = lazy
		if !lazy && b.CPUMapped {
			// Eager discard destroys the CPU mapping too; the pinned host
			// page itself remains (§5.6).
			b.CPUMapped = false
		}
		d.record(cur, trace.Discard, b, b.Bytes())
	case vaspace.GPUResident:
		c := d.chunkOf(b)
		dev := d.devs[b.GPUIndex]
		if c.Queue() == gpudev.QueueUsed {
			dev.Detach(c)
			dev.PushDiscarded(c)
		}
		b.Discarded = true
		b.LazyDiscard = lazy
		b.LivePages = 0
		if lazy {
			// Mappings stay; the unmap is deferred to reclamation.
			c.NeedsUnmapOnReclaim = true
		} else {
			cur = d.unmapBlock(dev, cur)
			b.GPUMapped = false
			c.NeedsUnmapOnReclaim = false
		}
		d.record(cur, trace.Discard, b, b.Bytes())
		if d.p.ImmediateReclaim {
			// §5.6 ablation: reclaim the physical chunk right away,
			// forfeiting cheap recovery on re-access.
			dev.Detach(c)
			cur = d.reclaimDiscarded(c, cur)
			dev.PushFree(c)
		}
	}
	return cur, true
}

// discardPartialEdges handles the partially covered head/tail blocks of a
// range under the AllowPartialDiscard ablation: the block's 2 MiB mapping
// is split and only the live remainder will migrate (slowly, at 4 KiB
// granularity) from now on. The caller's lazy flag carries through: when
// accumulated partial discards kill a whole block, a DiscardLazy call must
// still defer the unmap to reclamation rather than paying it eagerly.
func (d *Driver) discardPartialEdges(a *vaspace.Alloc, off, length uint64, now sim.Time, lazy bool) sim.Time {
	first, last, err := a.BlockSpan(off, length, false)
	if err != nil {
		return now
	}
	cur := now
	for i := first; i <= last; i++ {
		b := a.Block(i)
		lo := uint64(b.Index) * uint64(units.BlockSize)
		hi := lo + uint64(b.Bytes())
		covLo, covHi := max64(lo, off), min64(hi, off+length)
		if covLo >= covHi || (covLo == lo && covHi == hi) {
			continue // fully covered blocks were handled already
		}
		if b.Residency != vaspace.GPUResident || b.Discarded {
			continue
		}
		coveredPages := int((covHi - covLo) / uint64(units.PageSize))
		if coveredPages == 0 {
			continue
		}
		alreadySplit := b.LivePages > 0
		live := int(b.LivePages)
		if live == 0 {
			live = int(b.Bytes() / units.PageSize)
		}
		live -= coveredPages
		if live < 0 {
			live = 0
		}
		if !alreadySplit {
			// Splitting the 2 MiB mapping costs an unmap/remap round
			// trip — but only the first partial discard splits it; a
			// block LivePages shows is already at 4 KiB granularity just
			// shrinks its live set without more PTE work.
			prof := d.devs[b.GPUIndex].Profile()
			cur = d.unmapBlock(d.devs[b.GPUIndex], cur) + prof.MapPerBlock
			d.t.AddMap(1)
		}
		if live == 0 {
			// The whole block ended up dead across partial discards.
			cur, _ = d.discardBlock(b, cur, lazy)
		} else {
			b.LivePages = int16(live)
		}
	}
	return cur
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
