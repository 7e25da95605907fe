package core

import (
	"fmt"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// ErrOutOfGPUMemory is returned when neither the free queue nor any
// eviction source can supply a chunk — only possible when non-UVM device
// buffers or the oversubscription reservation hold everything.
var ErrOutOfGPUMemory = fmt.Errorf("core: GPU memory exhausted and nothing is evictable")

// allocChunk obtains a chunk on GPU gpu for block b, running the eviction
// process (§5.5) if the free queue is empty: unused queue first, then the
// discarded queue (no transfer either way), then swap-out of the LRU used
// chunk (a D2H transfer). Returns the chunk and the time it is ready.
func (d *Driver) allocChunk(b *vaspace.Block, gpu int, now sim.Time) (*gpudev.Chunk, sim.Time, error) {
	// Run-control checkpoint inside the eviction process: under memory
	// pressure a single access can trigger a long train of evictions, and a
	// deadline must be able to stop the run between them. The queues are
	// consistent here — nothing has been popped for this allocation yet.
	d.blockCheckpoint("evict", now)
	dev := d.devs[gpu]
	if c := dev.PopFree(); c != nil {
		d.m.AddEviction(metrics.EvictFree)
		return d.assign(c, b), now, nil
	}
	for _, src := range d.p.EvictionOrder {
		switch src {
		case metrics.EvictUnused:
			if c := dev.PopUnused(); c != nil {
				d.m.AddEviction(metrics.EvictUnused)
				return d.assign(c, b), now, nil
			}
		case metrics.EvictDiscarded:
			if c := dev.PopDiscarded(); c != nil {
				done := d.reclaimDiscarded(c, now)
				d.m.AddEviction(metrics.EvictDiscarded)
				return d.assign(c, b), done, nil
			}
		case metrics.EvictLRU:
			if victim := d.lruVictim(gpu); victim != nil {
				done := d.evictUsed(victim, now)
				d.m.AddEviction(metrics.EvictLRU)
				return d.assign(victim, b), done, nil
			}
		}
	}
	return nil, now, ErrOutOfGPUMemory
}

// lruVictim picks the least-recently-used chunk whose block is not pinned
// to the GPU by SetPreferredLocation; if everything is preferred, the
// plain LRU victim is taken anyway (the hint is advice, not a guarantee).
func (d *Driver) lruVictim(gpu int) *gpudev.Chunk {
	var fallback *gpudev.Chunk
	var victim *gpudev.Chunk
	d.devs[gpu].EachUsed(func(c *gpudev.Chunk) bool {
		if fallback == nil {
			fallback = c
		}
		vb, ok := c.Owner.(*vaspace.Block)
		if !ok || vb.Preferred != vaspace.PreferGPU {
			victim = c
			return false
		}
		return true
	})
	if victim != nil {
		return victim
	}
	return fallback
}

// assign points a detached chunk at its new owning block and resets
// per-tenancy state.
func (d *Driver) assign(c *gpudev.Chunk, b *vaspace.Block) *gpudev.Chunk {
	c.Owner = b
	c.PreparedPages = 0
	c.NeedsUnmapOnReclaim = false
	return c
}

// reclaimDiscarded reclaims a chunk popped from the discarded queue: its
// owner's data dies (reads afterwards observe zeros), the stale pinned host
// copy is released, and — for lazily discarded blocks — the deferred unmap
// is paid now (§5.6). No data transfer happens: this is the paper's saved
// D2H.
func (d *Driver) reclaimDiscarded(c *gpudev.Chunk, now sim.Time) sim.Time {
	vb := c.Owner.(*vaspace.Block)
	cur := now
	if c.NeedsUnmapOnReclaim {
		cur = d.unmapBlock(d.devs[vb.GPUIndex], cur)
	}
	d.m.AddSaved(metrics.D2H, uint64(vb.Bytes()))
	if vb.CPUHasPages {
		if vb.CPUPinned {
			d.host.Unpin(vb.Bytes())
		}
		d.host.Release(vb.Bytes())
	}
	vb.Alloc.ZeroBlockData(vb.Index)
	vb.Residency = vaspace.Untouched
	vb.Chunk = nil
	vb.GPUMapped, vb.CPUMapped = false, false
	vb.CPUHasPages, vb.CPUPinned, vb.CPUStale = false, false, false
	vb.Discarded, vb.LazyDiscard = false, false
	vb.Degraded = false
	d.touch(vb)
	return cur
}

// evictUsed swaps the LRU victim out to host DRAM (§2.2 step 3): a D2H
// transfer plus PTE teardown. For partially discarded blocks (§5.4
// ablation) only the live 4 KiB pages move, each as its own small DMA
// operation.
func (d *Driver) evictUsed(c *gpudev.Chunk, now sim.Time) sim.Time {
	vb := c.Owner.(*vaspace.Block)
	dev := d.devs[vb.GPUIndex]
	dev.Detach(c)

	if isDuplicated(vb) {
		// A read-mostly duplicate: the host copy is already valid, so the
		// GPU copy is simply dropped — no transfer (the SetReadMostly
		// payoff under pressure).
		cur := d.unmapBlock(dev, now)
		if vb.CPUPinned {
			d.host.Unpin(vb.Bytes())
			vb.CPUPinned = false
		}
		vb.CPUMapped = true
		vb.GPUMapped = false
		vb.Residency = vaspace.CPUResident
		vb.Chunk = nil
		vb.RemoteAccesses = 0
		d.touch(vb)
		return cur
	}

	bytes, xfer := d.migrationCost(vb)
	if dead := vb.Bytes() - bytes; dead > 0 {
		// A partial discard (§5.4) left only LivePages of the block live:
		// the dead remainder never crosses the link, which is exactly the
		// "saved by discard" D2H traffic the ablation reports.
		d.m.AddSaved(metrics.D2H, uint64(dead))
	}
	cur := d.unmapBlock(dev, now)
	cur = d.reserveD2H(vb, xfer, cur)
	d.m.AddTransfer(metrics.D2H, metrics.CauseEviction, uint64(bytes))
	d.record(cur, trace.TransferD2H, vb, bytes)

	if vb.CPUHasPages {
		if vb.CPUPinned {
			d.host.Unpin(vb.Bytes())
		}
	} else {
		if err := d.host.Reserve(vb.Bytes()); err != nil {
			panic(err) // host swap exhausted: configuration error
		}
		vb.CPUHasPages = true
	}
	vb.CPUPinned = false
	vb.CPUMapped = true
	vb.GPUMapped = false
	vb.Residency = vaspace.CPUResident
	vb.CPUStale = false
	vb.RemoteAccesses = 0
	vb.Chunk = nil
	d.touch(vb)
	return cur
}

// migrationCost returns (bytes moved, link time) for migrating one block in
// either direction, honouring partial-discard splitting.
func (d *Driver) migrationCost(b *vaspace.Block) (units.Size, sim.Time) {
	if b.LivePages > 0 {
		n := units.Size(b.LivePages) * units.PageSize
		t := sim.Time(b.LivePages)*d.p.PageDMALatency + sim.TransferTime(uint64(n), d.link.PeakBandwidth())
		return n, t
	}
	n := b.Bytes()
	return n, d.link.TransferTime(uint64(n))
}

// blockAction classifies what making a block GPU-resident requires.
type blockAction int

const (
	actHit      blockAction = iota // already resident & live: recency touch
	actSilent                      // lazily discarded & resident: GPU access proceeds with no fault and no driver knowledge (§5.2 hazard)
	actRecover                     // discarded & still resident: recover chunk (§5.7)
	actZero                        // allocate fresh zeroed chunk (untouched, or discarded-on-CPU)
	actTransfer                    // allocate chunk and migrate from host
	actRemote                      // serve the access over a coherent link without migrating (§2.3)
	actPeer                        // migrate from another GPU over the peer fabric (§2.3)
	actPeerDead                    // discarded on another GPU: reclaim there, zero here
)

func (d *Driver) classifyForGPU(b *vaspace.Block, gpu int, viaFault bool) blockAction {
	switch b.Residency {
	case vaspace.GPUResident:
		if b.GPUIndex != gpu {
			if b.Discarded {
				return actPeerDead
			}
			return actPeer
		}
		if !b.Discarded {
			return actHit
		}
		if b.LazyDiscard && viaFault {
			// Mappings are intact, so the access does not fault and the
			// driver never learns about it: the chunk stays on the
			// discarded queue and may be reclaimed later, losing the new
			// values. Correct programs prefetch first (§5.2).
			return actSilent
		}
		return actRecover
	case vaspace.CPUResident:
		if b.Discarded {
			return actZero
		}
		if viaFault && b.Degraded {
			// The migration retry budget was exhausted earlier: faulting
			// accesses go remote until a prefetch re-attempts (and, on
			// success, clears) the migration.
			return actRemote
		}
		if viaFault && b.Preferred == vaspace.PreferCPU {
			// SetPreferredLocation(CPU): the driver maps host memory for
			// the GPU (zero-copy) rather than migrating.
			return actRemote
		}
		if viaFault && d.remoteAccessEnabled() &&
			b.RemoteAccesses < d.p.RemoteAccessMigrateThreshold {
			// Coherent hardware satisfies the access in place; the
			// driver's access counters decide when migrating pays off.
			return actRemote
		}
		return actTransfer
	default: // Untouched
		return actZero
	}
}

// faults reports whether an action requires fault servicing when reached
// via a GPU access (rather than a prefetch). Remote accesses do not fault:
// the coherence hardware handles them without driver involvement.
func (a blockAction) faults() bool {
	return a != actHit && a != actSilent && a != actRemote
}

// remoteAccessEnabled reports whether the coherent remote-access mode is
// active: the link must be coherent and the policy threshold positive.
func (d *Driver) remoteAccessEnabled() bool {
	return d.link.Coherent() && d.p.RemoteAccessMigrateThreshold > 0
}

// ensureGPUBlocks makes every block GPU-resident (or leaves it silently
// discarded in the lazy-hazard case), in slice order, coalescing contiguous
// host-to-device migrations into single DMA operations. When viaFault is
// true the blocks arrive via GPU page faults and fault-servicing costs are
// charged in batches of Params.FaultBatchBlocks.
//
// It returns the completion time of the last operation.
func (d *Driver) ensureGPUBlocks(blocks []*vaspace.Block, now sim.Time, cause metrics.Cause, viaFault bool, gpu int) (sim.Time, error) {
	cur := now
	dev := d.devs[gpu]

	// Fault service cost: replayable faults are reported in batches; the
	// driver pays a batch latency plus per-block work (§2.2).
	if viaFault {
		misses := 0
		for _, b := range blocks {
			if d.classifyForGPU(b, gpu, viaFault).faults() {
				misses++
			}
		}
		total := misses
		for misses > 0 {
			n := misses
			if n > d.p.FaultBatchBlocks {
				n = d.p.FaultBatchBlocks
			}
			cur += dev.Profile().FaultBatchLatency + sim.Time(n)*dev.Profile().FaultPerBlock
			d.m.AddFaultBatch(n)
			misses -= n
		}
		if d.fi != nil && total > 0 {
			if rounds := d.fi.OverflowRounds(total); rounds > 0 {
				// The replayable fault buffer overflowed: faults beyond its
				// capacity were dropped by the hardware and re-raised, each
				// replay round costing another buffer drain.
				cur += sim.Time(rounds) * dev.Profile().FaultBatchLatency
				d.m.AddFaultReplay(rounds)
			}
		}
	}

	// State transitions + data movement, with H2D coalescing across
	// consecutive full-block transfers. Per-block bookkeeping (map counts,
	// trace records) amortizes into the same per-run flush the DMA
	// reservation already uses; the run's block list is only materialized
	// when a trace recorder needs it, via the driver's run scratch.
	var runBytes units.Size
	var runCount int
	d.runScratch = d.runScratch[:0] // may hold stale blocks after an aborted run
	flush := func() {
		if runBytes == 0 {
			return
		}
		_, end := d.dma.Reserve(cur, d.scaleDMA(d.link.TransferTime(uint64(runBytes)), cur))
		cur = end
		d.m.AddTransfer(metrics.H2D, cause, uint64(runBytes))
		d.m.AddMap(runCount)
		for _, rb := range d.runScratch {
			d.record(cur, trace.TransferH2D, rb, rb.Bytes())
		}
		runBytes, runCount = 0, 0
		d.runScratch = d.runScratch[:0]
	}

	for _, b := range blocks {
		d.blockCheckpoint("ensure-gpu", cur)
		act := d.classifyForGPU(b, gpu, viaFault)
		if act != actTransfer || b.LivePages > 0 {
			flush()
		}
		switch act {
		case actHit:
			if b.Chunk.Queue() == gpudev.QueueUsed {
				dev.Touch(b.Chunk)
			}
			if viaFault && b.LivePages > 0 {
				// The block's 2 MiB mapping was split by a partial
				// discard: 4 KiB PTEs blow the TLB coverage (§5.4).
				cur += d.p.SplitTLBPenalty
			}
			if !viaFault {
				// A prefetch of already-resident memory neither transfers
				// nor prefaults; it only updates access recency — and that
				// bookkeeping still costs driver time (§7.5.1).
				cur += d.p.PrefetchRecencyPerBlock
			}
		case actSilent:
			// Nothing: no fault, no driver knowledge. Under the
			// sanitizer's strict protocol mode this hazard panics at the
			// access instead of losing the data at some later reclaim.
			if d.p.PanicOnSilentReuse {
				panic("core: sanitizer: " + silentReuseDiag(b))
			}
		case actRemote:
			// The GPU reads/writes host memory through the link without
			// migrating (coherent hardware, or a zero-copy mapping for a
			// PreferCPU block). Bandwidth still bounds it. Preferred
			// blocks never promote; counter-mode blocks do.
			_, cur = d.dma.Reserve(cur, d.scaleDMA(d.link.RemoteAccessTime(uint64(b.Bytes())), cur))
			d.m.AddTransfer(metrics.H2D, metrics.CauseRemote, uint64(b.Bytes()))
			if b.Preferred != vaspace.PreferCPU && !b.Degraded {
				// Degraded blocks never promote on access counters: only a
				// prefetch re-attempts the failed migration.
				b.RemoteAccesses++
			}
		case actRecover:
			cur = d.recoverDiscarded(b, cur, viaFault)
		case actPeer:
			var err error
			cur, err = d.migratePeer(b, gpu, cur)
			if err != nil {
				return cur, err
			}
		case actPeerDead:
			// Discarded on a peer GPU: reclaim the remote chunk without a
			// peer transfer, then fall through to fresh zeroed memory here.
			d.m.AddPeerSaved(uint64(b.Bytes()))
			remote := d.devs[b.GPUIndex]
			old := b.Chunk
			remote.Detach(old)
			cur = d.reclaimDiscarded(old, cur) // clears b.Chunk and discard state
			remote.PushFree(old)
			fallthrough
		case actZero:
			var err error
			cur, err = d.populateZeroed(b, gpu, cur)
			if err != nil {
				return cur, err
			}
		case actTransfer:
			// Fault injection: draw this block's migration outcome before
			// any state transition, so a block that ends up degrading never
			// half-commits. A failed first attempt flushes the pending
			// coalesced run (the engine aborted mid-stream) and retries
			// with backoff; exhaustion degrades to host-pinned access.
			if d.fi != nil && d.fi.DMAFails() {
				flush()
				ready, ok := d.retryH2D(b, cur)
				cur = ready
				if !ok {
					cur = d.degradeToHost(b, cur)
					continue
				}
			}
			chunk, ready, err := d.allocChunk(b, gpu, cur)
			if err != nil {
				return cur, err
			}
			cur = ready
			b.Chunk = chunk
			if b.LivePages > 0 {
				// Partial block: page-granular migration, not coalesced.
				n, t := d.migrationCost(b)
				_, cur = d.dma.Reserve(cur, d.scaleDMA(t, cur))
				d.m.AddTransfer(metrics.H2D, cause, uint64(n))
				d.m.AddMap(1)
				d.record(cur, trace.TransferH2D, b, n)
				chunk.PreparedPages = units.PagesPerBlock // live pages moved, rest zeroed below cost
			} else {
				// PTE establishment for bulk migrations is pipelined with
				// the copy engine (unlike recovery remaps, which sit on the
				// critical path), so only the bookkeeping is counted — and
				// that bookkeeping amortizes into the run's flush.
				runBytes += b.Bytes()
				runCount++
				if d.tr != nil {
					d.runScratch = append(d.runScratch, b)
				}
				chunk.PreparedPages = units.PagesPerBlock
			}
			b.GPUIndex = gpu
			// Host pages stay pinned while the block is GPU-mapped (§2.2).
			if !b.CPUPinned {
				d.host.Pin(b.Bytes())
				b.CPUPinned = true
			}
			if b.ReadMostly {
				// SetReadMostly: this is a read-only duplication — the
				// host copy stays valid and mapped.
				b.CPUStale = false
			} else {
				b.CPUMapped = false
				b.CPUStale = true
			}
			b.Residency = vaspace.GPUResident
			b.GPUMapped = true
			b.Degraded = false
			b.RemoteAccesses = 0
			dev.PushUsed(b.Chunk)
			d.touch(b)
		}
	}
	flush()
	return cur, nil
}

// recoverDiscarded handles re-use of a block that was discarded but whose
// chunk is still on the discarded queue (§5.7): the chunk moves back to the
// MRU end of the used queue. Under UvmDiscard the eagerly destroyed
// mappings must be re-established; under UvmDiscardLazy nothing was
// destroyed. A chunk that was never fully prepared is re-zeroed.
func (d *Driver) recoverDiscarded(b *vaspace.Block, now sim.Time, viaFault bool) sim.Time {
	cur := now
	c := b.Chunk
	dev := d.devs[b.GPUIndex]
	dev.Detach(c)
	if !b.GPUMapped {
		cur += dev.Profile().MapPerBlock
		d.m.AddMap(1)
		b.GPUMapped = true
	}
	if !d.p.PreparedTracking || c.PreparedPages < units.PagesPerBlock {
		cur += dev.Profile().ZeroTimeBlock()
		d.m.AddZeroFill(1, 0)
		c.PreparedPages = units.PagesPerBlock
		b.Alloc.ZeroBlockData(b.Index)
		d.record(cur, trace.ZeroFill, b, b.Bytes())
	}
	c.NeedsUnmapOnReclaim = false
	b.Discarded, b.LazyDiscard = false, false
	dev.PushUsed(c)
	d.touch(b)
	return cur
}

// migratePeer moves a block between GPUs over the peer fabric (§2.3): a
// chunk is allocated on the target, the data crosses the GPU-to-GPU link
// (no host DRAM involvement), and the source chunk is freed.
func (d *Driver) migratePeer(b *vaspace.Block, gpu int, now sim.Time) (sim.Time, error) {
	src := d.devs[b.GPUIndex]
	oldChunk := b.Chunk
	chunk, cur, err := d.allocChunk(b, gpu, now)
	if err != nil {
		return cur, err
	}
	n := uint64(b.Bytes())
	end, ok := d.reserveTransfer(d.peer, faultinject.LinkPeer, d.peerLink.TransferTime(n), cur)
	if ok {
		cur = end
		d.m.AddPeer(n)
	} else {
		// The peer fabric will not carry this block: bounce it through
		// host DRAM on the DMA engine instead (D2H off the source, H2D
		// onto the target). The bounce legs are not re-injected — the
		// degradation path must terminate.
		_, mid := d.dma.Reserve(end, d.scaleDMA(d.link.TransferTime(n), end))
		_, cur = d.dma.Reserve(mid, d.scaleDMA(d.link.TransferTime(n), mid))
		d.m.AddTransfer(metrics.D2H, metrics.CauseFault, n)
		d.m.AddTransfer(metrics.H2D, metrics.CauseFault, n)
		d.m.AddDegraded(n)
	}
	d.record(cur, trace.TransferPeer, b, b.Bytes())
	cur = d.unmapBlock(src, cur)
	src.Detach(oldChunk)
	src.PushFree(oldChunk)
	chunk.PreparedPages = units.PagesPerBlock
	b.Chunk = chunk
	b.GPUIndex = gpu
	b.GPUMapped = true
	b.RemoteAccesses = 0
	d.devs[gpu].PushUsed(chunk)
	d.touch(b)
	return cur, nil
}

// populateZeroed allocates, zeroes, and maps a fresh chunk for a block with
// no live data: first touch of an untouched block, or re-population of a
// block whose contents were discarded while CPU-resident — the latter is
// the paper's saved H2D (§5.3 scenario two).
func (d *Driver) populateZeroed(b *vaspace.Block, gpu int, now sim.Time) (sim.Time, error) {
	if b.Discarded {
		// Skip the H2D transfer the non-discard driver would have done.
		d.m.AddSaved(metrics.H2D, uint64(b.Bytes()))
		if b.CPUHasPages {
			if b.CPUPinned {
				d.host.Unpin(b.Bytes())
			}
			d.host.Release(b.Bytes())
			b.CPUHasPages, b.CPUPinned = false, false
		}
		b.Alloc.ZeroBlockData(b.Index)
		b.Discarded, b.LazyDiscard = false, false
	}
	chunk, cur, err := d.allocChunk(b, gpu, now)
	if err != nil {
		return cur, err
	}
	dev := d.devs[gpu]
	cur += dev.Profile().ZeroTimeBlock() + dev.Profile().MapPerBlock
	d.m.AddZeroFill(1, 0)
	d.m.AddMap(1)
	chunk.PreparedPages = units.PagesPerBlock
	b.Chunk = chunk
	b.Residency = vaspace.GPUResident
	b.GPUIndex = gpu
	b.GPUMapped = true
	b.CPUMapped = false
	b.Degraded = false
	dev.PushUsed(chunk)
	d.touch(b)
	d.record(cur, trace.ZeroFill, b, b.Bytes())
	return cur, nil
}

// ensureCPUBlock makes one block CPU-accessible. GPU-resident live data
// migrates D2H; discarded GPU data is reclaimed without a transfer and the
// host observes zeros (§5.3 scenario one from the CPU side). Read-mostly
// GPU-resident blocks are *duplicated* to the host on reads rather than
// migrated (the write-intent collapse happens in CPUAccess).
func (d *Driver) ensureCPUBlock(b *vaspace.Block, now sim.Time, cause metrics.Cause, forWrite bool) sim.Time {
	cur := now
	d.touch(b)
	switch b.Residency {
	case vaspace.CPUResident:
		if !b.CPUMapped {
			// The eager discard destroyed the CPU mapping; re-fault.
			cur += d.p.CPUMinorFault
			b.CPUMapped = true
		}
	case vaspace.Untouched:
		if err := d.host.Reserve(b.Bytes()); err != nil {
			panic(err)
		}
		cur += d.p.CPUFirstTouchPerBlock
		b.CPUHasPages = true
		b.CPUMapped = true
		b.Residency = vaspace.CPUResident
	case vaspace.GPUResident:
		if isDuplicated(b) {
			// Valid host copy already: a local access.
			if !b.CPUMapped {
				cur += d.p.CPUMinorFault
				b.CPUMapped = true
			}
			return cur
		}
		if b.ReadMostly && !b.Discarded && !forWrite {
			// Duplicate the block to the host, keeping the GPU copy: a
			// D2H copy, after which reads are local on both sides.
			bytes, xfer := d.migrationCost(b)
			cur = d.reserveD2H(b, xfer, cur)
			d.m.AddTransfer(metrics.D2H, cause, uint64(bytes))
			d.record(cur, trace.TransferD2H, b, bytes)
			if !b.CPUHasPages {
				if err := d.host.Reserve(b.Bytes()); err != nil {
					panic(err)
				}
				b.CPUHasPages = true
			}
			b.CPUStale = false
			b.CPUMapped = true
			return cur
		}
		c := b.Chunk
		dev := d.devs[b.GPUIndex]
		if b.Discarded {
			// Reclaim without transferring: saved D2H.
			dev.Detach(c)
			if c.NeedsUnmapOnReclaim {
				cur = d.unmapBlock(dev, cur)
			}
			d.m.AddSaved(metrics.D2H, uint64(b.Bytes()))
			dev.PushFree(c)
			b.Alloc.ZeroBlockData(b.Index)
			b.Discarded, b.LazyDiscard = false, false
		} else {
			dev.Detach(c)
			bytes, xfer := d.migrationCost(b)
			cur = d.unmapBlock(dev, cur)
			cur = d.reserveD2H(b, xfer, cur)
			d.m.AddTransfer(metrics.D2H, cause, uint64(bytes))
			d.record(cur, trace.TransferD2H, b, bytes)
			dev.PushFree(c)
		}
		if b.CPUHasPages {
			if b.CPUPinned {
				d.host.Unpin(b.Bytes())
			}
		} else {
			if err := d.host.Reserve(b.Bytes()); err != nil {
				panic(err)
			}
			b.CPUHasPages = true
		}
		b.CPUPinned = false
		b.CPUMapped = true
		b.GPUMapped = false
		b.CPUStale = false
		b.Chunk = nil
		b.Residency = vaspace.CPUResident
	}
	return cur
}
