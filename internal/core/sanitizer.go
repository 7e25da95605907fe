package core

import (
	"fmt"

	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// This file is the driver's runtime sanitizer: an always-available
// invariant checker over the whole memory-management model, enabled by
// Params.CheckInvariantsEvery and run after every Nth public driver
// operation. It enforces the paper's state machine mechanically:
//
//   - every physical chunk lives in exactly one queue, and the per-device
//     queue bookkeeping is self-consistent (§5.5);
//   - chunk↔block back-references (a chunk's owner handle, a block's chunk
//     id and GPU) agree in both directions;
//   - bytes are conserved: free + unused + used + discarded + reserved +
//     cudaMalloc'd device buffers == GPU capacity, on every device;
//   - host DRAM accounting matches the blocks that claim host pages;
//   - the discard protocol holds: an eagerly discarded resident block has
//     no GPU mappings left (a touch must fault, §5.1), a lazily discarded
//     resident block keeps its mappings and carries the deferred-unmap
//     marker (§5.2/§5.6), and NeedsUnmapOnReclaim never appears on a chunk
//     that is not lazily discarded;
//   - every standing run (run.go) holds: each block of its allocation is a
//     clean hit on the run's GPU (resident shape) or a fully prepared block
//     discarded there with the run's flavour (discarded shape), the blocks'
//     chunks lie contiguously in block order on that GPU's used or
//     discarded queue, and the stale flag is set only if every block's host
//     copy is stale.
//
// Violations panic with a diagnostic naming the offending alloc, block,
// and chunk — the class of bug PR 1 had to find by hand-written regression
// tests is now caught at the operation that introduces it.

// CheckNow runs the full invariant sweep immediately, regardless of
// Params.CheckInvariantsEvery, and returns the first violation found (nil if
// the state is consistent). Tests use it directly; the driver's internal
// hook wraps it in a panic.
func (d *Driver) CheckNow() error {
	for gpu, dev := range d.devs {
		if err := dev.CheckInvariants(); err != nil {
			return fmt.Errorf("sanitizer: GPU %d: %w", gpu, err)
		}
		if err := d.checkChunks(gpu, dev); err != nil {
			return err
		}
	}
	return d.checkBlocks()
}

// verify is the per-operation hook: after every
// Params.CheckInvariantsEvery'th public operation it runs the full CheckNow
// sweep and panics, labeled with the operation that exposed the violation.
// A stride of 0 (the default) turns it off.
func (d *Driver) verify(op string) {
	stride := d.p.CheckInvariantsEvery
	if stride == 0 {
		return
	}
	d.opCount++
	if d.opCount%uint64(stride) != 0 {
		return
	}
	if err := d.CheckNow(); err != nil {
		panic(fmt.Sprintf("core: after %s: %v", op, err))
	}
}

// checkChunks validates one device's chunks from the physical side:
// queue membership vs. owner back-pointers, the deferred-unmap marker,
// and byte conservation including non-UVM device buffers.
func (d *Driver) checkChunks(gpu int, dev *gpudev.Device) error {
	var detached []*gpudev.Chunk
	var err error
	dev.EachChunk(func(c *gpudev.Chunk) bool {
		switch c.Queue() {
		case gpudev.QueueUsed, gpudev.QueueDiscarded:
			b := d.owner(c)
			if b == nil {
				err = fmt.Errorf("sanitizer: GPU %d chunk %d on %v queue has no owning block",
					gpu, c.ID(), c.Queue())
				return false
			}
			if id, ok := b.Chunk(); !ok || id != c.ID() {
				err = fmt.Errorf("sanitizer: GPU %d chunk %d owner %s does not point back (block.Chunk=%v)",
					gpu, c.ID(), d.blockName(b), blockChunk(b))
				return false
			}
			if int(b.GPUIndex) != gpu {
				err = fmt.Errorf("sanitizer: GPU %d chunk %d owned by %s which claims GPU %d",
					gpu, c.ID(), d.blockName(b), b.GPUIndex)
				return false
			}
		case gpudev.QueueFree, gpudev.QueueUnused, gpudev.QueueReserved, gpudev.QueuePoisoned:
			if c.Owner != 0 {
				err = fmt.Errorf("sanitizer: GPU %d chunk %d on %v queue still has owner %s",
					gpu, c.ID(), c.Queue(), d.ownerName(c))
				return false
			}
		case gpudev.QueueNone:
			detached = append(detached, c)
		}
		if c.DeviceBuffer && c.Queue() != gpudev.QueueNone {
			err = fmt.Errorf("sanitizer: GPU %d chunk %d is marked as a device buffer but sits on the %v queue",
				gpu, c.ID(), c.Queue())
			return false
		}
		if c.NeedsUnmapOnReclaim {
			b := d.owner(c)
			if c.Queue() != gpudev.QueueDiscarded || b == nil || !b.LazyDiscard {
				err = fmt.Errorf("sanitizer: GPU %d chunk %d (queue %v, owner %s) has NeedsUnmapOnReclaim set but is not a lazily discarded chunk",
					gpu, c.ID(), c.Queue(), d.ownerName(c))
				return false
			}
		}
		return true
	})
	if err != nil {
		return err
	}

	// Detached chunks must be exactly the cudaMalloc'd device buffers
	// (which only exist on the primary GPU); anything else is a leaked
	// chunk that escaped every queue.
	for _, c := range detached {
		if gpu != 0 {
			return fmt.Errorf("sanitizer: GPU %d chunk %d is on no queue and is not a device buffer (peer GPUs have none)",
				gpu, c.ID())
		}
		if !c.DeviceBuffer {
			return fmt.Errorf("sanitizer: GPU 0 chunk %d is on no queue and not marked as a device buffer: leaked",
				c.ID())
		}
		if c.Owner != 0 {
			return fmt.Errorf("sanitizer: device-buffer chunk %d has owner %s", c.ID(), d.ownerName(c))
		}
	}
	if gpu == 0 {
		if len(detached) != d.deviceChunkCount {
			return fmt.Errorf("sanitizer: GPU 0 has %d detached chunks but %d tracked device-buffer chunks",
				len(detached), d.deviceChunkCount)
		}
		if want := units.Size(d.deviceChunkCount) * units.BlockSize; d.deviceAllocBytes != want {
			return fmt.Errorf("sanitizer: deviceAllocBytes %s but %d device-buffer chunks (%s)",
				units.Format(d.deviceAllocBytes), d.deviceChunkCount, units.Format(want))
		}
	}

	// Byte conservation: every queue plus detached device buffers must
	// add up to the device's capacity.
	queued := dev.QueueLen(gpudev.QueueFree) + dev.QueueLen(gpudev.QueueUnused) +
		dev.QueueLen(gpudev.QueueUsed) + dev.QueueLen(gpudev.QueueDiscarded) +
		dev.QueueLen(gpudev.QueueReserved) + dev.QueueLen(gpudev.QueuePoisoned)
	if got, want := queued+len(detached), dev.TotalChunks(); got != want {
		return fmt.Errorf("sanitizer: GPU %d byte conservation broken: queues %d + detached %d chunks != capacity %d",
			gpu, queued, len(detached), want)
	}
	return nil
}

// checkBlocks validates every live allocation's blocks from the virtual
// side, and reconciles host DRAM accounting.
func (d *Driver) checkBlocks() error {
	var wantResident, wantPinned units.Size
	for _, a := range d.space.Live() {
		for i := 0; i < a.NumBlocks(); i++ {
			b := a.Block(i)
			if err := d.checkBlock(b); err != nil {
				return err
			}
			if b.CPUHasPages {
				wantResident += b.Bytes()
			}
			if b.CPUPinned {
				wantPinned += b.Bytes()
			}
		}
		if err := d.checkRun(a); err != nil {
			return err
		}
	}
	if got := d.host.Resident(); got != wantResident {
		return fmt.Errorf("sanitizer: host accounting: %s resident but live blocks claim %s",
			units.Format(got), units.Format(wantResident))
	}
	if got := d.host.Pinned(); got != wantPinned {
		return fmt.Errorf("sanitizer: host accounting: %s pinned but live blocks claim %s",
			units.Format(got), units.Format(wantPinned))
	}
	return nil
}

func (d *Driver) checkBlock(b *vaspace.Block) error {
	if b.CPUPinned && !b.CPUHasPages {
		return fmt.Errorf("sanitizer: %s is pinned without host pages", d.blockName(b))
	}
	if b.LazyDiscard && !b.Discarded {
		return fmt.Errorf("sanitizer: %s has LazyDiscard without Discarded", d.blockName(b))
	}
	if pages := int(b.Bytes() / units.PageSize); b.LivePages < 0 || int(b.LivePages) > pages {
		return fmt.Errorf("sanitizer: %s has LivePages %d outside [0,%d]", d.blockName(b), b.LivePages, pages)
	}
	switch b.Residency {
	case vaspace.GPUResident:
		if b.Degraded {
			// Degradation is the *failure* to reach GPU residency; a block
			// that made it must have cleared the flag.
			return fmt.Errorf("sanitizer: %s is GPU-resident but still marked degraded", d.blockName(b))
		}
		id, ok := b.Chunk()
		if !ok {
			return fmt.Errorf("sanitizer: %s is GPU-resident without a chunk", d.blockName(b))
		}
		if b.GPUIndex < 0 || int(b.GPUIndex) >= len(d.devs) {
			return fmt.Errorf("sanitizer: %s claims GPU %d of %d", d.blockName(b), b.GPUIndex, len(d.devs))
		}
		c, err := d.devs[b.GPUIndex].ChunkByID(int32(id))
		if err != nil {
			return fmt.Errorf("sanitizer: %s: %w", d.blockName(b), err)
		}
		if d.owner(c) != b {
			return fmt.Errorf("sanitizer: %s points at chunk %d whose owner is %s",
				d.blockName(b), c.ID(), d.ownerName(c))
		}
		switch q := c.Queue(); {
		case b.Discarded && q != gpudev.QueueDiscarded:
			return fmt.Errorf("sanitizer: %s is discarded but its chunk %d sits on the %v queue",
				d.blockName(b), c.ID(), q)
		case !b.Discarded && q != gpudev.QueueUsed:
			return fmt.Errorf("sanitizer: %s is live but its chunk %d sits on the %v queue",
				d.blockName(b), c.ID(), q)
		}
		if b.Discarded && !b.LazyDiscard {
			// §5.1: the eager discard destroyed the mappings; if any
			// remained, a GPU touch would proceed without a fault and
			// the driver would never observe the re-use.
			if b.GPUMapped {
				return fmt.Errorf("sanitizer: eagerly discarded %s is still GPU-mapped: a touch would not fault",
					d.blockName(b))
			}
			if c.NeedsUnmapOnReclaim {
				return fmt.Errorf("sanitizer: eagerly discarded %s carries NeedsUnmapOnReclaim on chunk %d",
					d.blockName(b), c.ID())
			}
		}
		if b.Discarded && b.LazyDiscard {
			// §5.2/§5.6: lazy discard keeps the mappings and defers the
			// unmap to reclamation.
			if !b.GPUMapped {
				return fmt.Errorf("sanitizer: lazily discarded %s lost its GPU mapping", d.blockName(b))
			}
			if !c.NeedsUnmapOnReclaim {
				return fmt.Errorf("sanitizer: lazily discarded %s chunk %d is missing NeedsUnmapOnReclaim",
					d.blockName(b), c.ID())
			}
		}
		if !b.Discarded && !b.GPUMapped {
			return fmt.Errorf("sanitizer: %s is GPU-resident and live but unmapped", d.blockName(b))
		}
	case vaspace.CPUResident:
		if id, ok := b.Chunk(); ok {
			return fmt.Errorf("sanitizer: %s is CPU-resident but holds GPU chunk %d",
				d.blockName(b), id)
		}
		if !b.CPUHasPages {
			return fmt.Errorf("sanitizer: %s is CPU-resident without host pages", d.blockName(b))
		}
		if b.GPUMapped {
			return fmt.Errorf("sanitizer: %s is CPU-resident but still GPU-mapped", d.blockName(b))
		}
	case vaspace.Untouched:
		if b.HasChunk() || b.CPUHasPages || b.CPUPinned || b.GPUMapped || b.CPUMapped || b.Discarded || b.Degraded {
			return fmt.Errorf("sanitizer: untouched %s has physical state (chunk=%v pages=%v pinned=%v gpuMap=%v cpuMap=%v discarded=%v degraded=%v)",
				d.blockName(b), blockChunk(b), b.CPUHasPages, b.CPUPinned, b.GPUMapped, b.CPUMapped, b.Discarded, b.Degraded)
		}
	}
	return nil
}

// checkRun validates a's run, if one stands, in either shape. The blocks'
// per-block checks have already passed, so a clean hit's chunk sits on the
// used queue of its GPU and a discarded block's on the discarded queue.
func (d *Driver) checkRun(a *vaspace.Alloc) error {
	r := a.Resident
	if !r.On {
		return nil
	}
	if r.GPU < 0 || r.GPU >= len(d.devs) {
		return fmt.Errorf("sanitizer: resident run of alloc %q claims GPU %d of %d", a.Name(), r.GPU, len(d.devs))
	}
	if r.Lazy && !r.Discarded {
		return fmt.Errorf("sanitizer: resident run of alloc %q is lazy but not discarded", a.Name())
	}
	dev := d.devs[r.GPU]
	shape := "resident"
	if r.Discarded {
		shape = "discarded"
	}
	var prev *gpudev.Chunk
	for i := 0; i < a.NumBlocks(); i++ {
		b := a.Block(i)
		c := d.chunkOf(b) // checkBlock has checked every chunk a block holds
		switch {
		case !r.Discarded && !cleanHit(b, r.GPU):
			return fmt.Errorf("sanitizer: resident run on GPU %d covers %s, which is not a clean hit there (%v on GPU %d, discarded=%v livePages=%d readMostly=%v)",
				r.GPU, d.blockName(b), b.Residency, b.GPUIndex, b.Discarded, b.LivePages, b.ReadMostly)
		case r.Discarded && !discardedInRun(b, c, r):
			return fmt.Errorf("sanitizer: discarded run (lazy=%v) on GPU %d covers %s, which is not a fully prepared block discarded there with that flavour (%v on GPU %d, discarded=%v lazy=%v livePages=%d readMostly=%v prepared=%v)",
				r.Lazy, r.GPU, d.blockName(b), b.Residency, b.GPUIndex, b.Discarded, b.LazyDiscard, b.LivePages, b.ReadMostly,
				c != nil && c.PreparedPages == gpudev.FullyPrepared)
		}
		if prev != nil && dev.Next(prev) != c {
			return fmt.Errorf("sanitizer: %s run on GPU %d is not contiguous: %s does not follow block %d on the %v queue",
				shape, r.GPU, d.blockName(b), i-1, prev.Queue())
		}
		if r.Stale && !b.CPUStale {
			return fmt.Errorf("sanitizer: %s run on GPU %d claims every host copy stale, but %s's is not",
				shape, r.GPU, d.blockName(b))
		}
		prev = c
	}
	return nil
}

// discardedInRun reports whether b, holding chunk c, fits the discarded run
// r: discarded on r's GPU with r's flavour while still resident there,
// with no live-page split, not read-mostly, and its chunk fully prepared,
// so recovering it zeroes nothing.
func discardedInRun(b *vaspace.Block, c *gpudev.Chunk, r vaspace.ResidentRun) bool {
	return b.Residency == vaspace.GPUResident && int(b.GPUIndex) == r.GPU &&
		b.Discarded && b.LazyDiscard == r.Lazy && b.LivePages == 0 && !b.ReadMostly &&
		c.PreparedPages == gpudev.FullyPrepared
}

// silentReuseDiag names the block involved in a §5.2 protocol violation:
// a GPU access to a lazily discarded, still-resident block. No fault
// occurs, the driver never learns the data is live again, and a later
// reclaim silently destroys it.
func (d *Driver) silentReuseDiag(b *vaspace.Block) string {
	return fmt.Sprintf("lazy-discard protocol violation: GPU access to %s without the mandatory prefetch (UvmDiscardLazy §5.2); the write is silent and a later reclaim loses it",
		d.blockName(b))
}

func (d *Driver) blockName(b *vaspace.Block) string {
	return fmt.Sprintf("block %d of alloc %q (id %d)", b.Index, d.space.AllocOf(b).Name(), b.Alloc)
}

// ownerName names the block c's owner handle names, "<nil>" for an unowned
// chunk, or the raw handle when it names no block of a live allocation.
func (d *Driver) ownerName(c *gpudev.Chunk) string {
	if c.Owner == 0 {
		return "<nil>"
	}
	if b := d.owner(c); b != nil {
		return d.blockName(b)
	}
	return fmt.Sprintf("handle %#x", c.Owner)
}

// blockChunk names the chunk b holds, or "<nil>".
func blockChunk(b *vaspace.Block) string {
	if id, ok := b.Chunk(); ok {
		return fmt.Sprintf("chunk %d", id)
	}
	return "<nil>"
}
