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
		d.t.AddEviction(metrics.EvictFree)
		return d.assign(c, b), now, nil
	}
	for _, src := range d.p.EvictionOrder {
		switch src {
		case metrics.EvictUnused:
			if c := dev.PopUnused(); c != nil {
				d.t.AddEviction(metrics.EvictUnused)
				return d.assign(c, b), now, nil
			}
		case metrics.EvictDiscarded:
			if c := dev.PopDiscarded(); c != nil {
				done := d.reclaimDiscarded(c, now)
				d.t.AddEviction(metrics.EvictDiscarded)
				return d.assign(c, b), done, nil
			}
		case metrics.EvictLRU:
			if victim, va, vb := d.lruVictim(gpu); victim != nil {
				done := d.evictUsed(victim, va, vb, now)
				d.t.AddEviction(metrics.EvictLRU)
				return d.assign(victim, b), done, nil
			}
		}
	}
	return nil, now, ErrOutOfGPUMemory
}

// lruVictim picks the least-recently-used chunk whose block is not pinned
// to the GPU by SetPreferredLocation; if everything is preferred, the
// plain LRU victim is taken anyway (the hint is advice, not a guarantee).
// It returns the chunk with its owning allocation and block, decoded once
// for the eviction. The LRU chunk's block is almost never preferred, so
// the used queue is walked only when it is.
func (d *Driver) lruVictim(gpu int) (*gpudev.Chunk, *vaspace.Alloc, *vaspace.Block) {
	dev := d.devs[gpu]
	victim := dev.LRUVictim()
	if victim == nil {
		return nil, nil, nil
	}
	va, vb := d.ownerOf(victim)
	if !prefersGPU(vb) {
		return victim, va, vb
	}
	dev.EachUsed(func(c *gpudev.Chunk) bool {
		if a, b := d.ownerOf(c); !prefersGPU(b) {
			victim, va, vb = c, a, b
			return false
		}
		return true
	})
	return victim, va, vb
}

// prefersGPU reports whether b, a chunk's owning block, is pinned to the
// GPU by SetPreferredLocation.
func prefersGPU(b *vaspace.Block) bool {
	return b != nil && b.Preferred == vaspace.PreferGPU
}

// assign points a detached chunk at its new owning block and resets
// per-tenancy state. The caller records the chunk on the block
// (Block.SetChunk).
func (d *Driver) assign(c *gpudev.Chunk, b *vaspace.Block) *gpudev.Chunk {
	c.Owner = OwnerHandle(b)
	c.PreparedPages = 0
	c.NeedsUnmapOnReclaim = false
	return c
}

// OwnerHandle is the gpudev.Chunk.Owner handle that names b: its
// allocation's id plus one in the high 32 bits and its index in the low
// ones, so that no block's handle is 0, the unowned chunk's.
func OwnerHandle(b *vaspace.Block) uint64 {
	return uint64(b.Alloc+1)<<32 | uint64(uint32(b.Index))
}

// ownerOf returns the allocation and block c's Owner handle names, or nils
// when c is unowned or the handle names no block of a live allocation. It
// is the one place the driver turns a chunk back into its block.
func (d *Driver) ownerOf(c *gpudev.Chunk) (*vaspace.Alloc, *vaspace.Block) {
	if c.Owner == 0 {
		return nil, nil
	}
	a := d.space.ByID(int(c.Owner>>32) - 1)
	if i := int(uint32(c.Owner)); a != nil && i < a.NumBlocks() {
		return a, a.Block(i)
	}
	return nil, nil
}

// owner returns the block c's Owner handle names (see ownerOf).
func (d *Driver) owner(c *gpudev.Chunk) *vaspace.Block {
	_, b := d.ownerOf(c)
	return b
}

// chunkOf returns the chunk holding b's data, or nil when b holds none.
func (d *Driver) chunkOf(b *vaspace.Block) *gpudev.Chunk {
	if id, ok := b.Chunk(); ok {
		return d.devs[b.GPUIndex].Chunk(id)
	}
	return nil
}

// zeroData zeroes b's backing bytes, if its allocation carries any: the
// block's data died, and later reads observe zeros (§4.1).
func (d *Driver) zeroData(b *vaspace.Block) {
	d.space.AllocOf(b).ZeroBlockData(int(b.Index))
}

// reclaimDiscarded reclaims a chunk popped from the discarded queue: its
// owner's data dies (reads afterwards observe zeros), the stale pinned host
// copy is released, and — for lazily discarded blocks — the deferred unmap
// is paid now (§5.6). No data transfer happens: this is the paper's saved
// D2H.
func (d *Driver) reclaimDiscarded(c *gpudev.Chunk, now sim.Time) sim.Time {
	a, vb := d.ownerOf(c)
	d.clearRun(a)
	cur := now
	if c.NeedsUnmapOnReclaim {
		cur = d.unmapBlock(d.devs[vb.GPUIndex], cur)
	}
	d.t.AddSaved(metrics.D2H, uint64(vb.Bytes()))
	if vb.CPUHasPages {
		if vb.CPUPinned {
			d.host.Unpin(vb.Bytes())
		}
		d.host.Release(vb.Bytes())
	}
	a.ZeroBlockData(int(vb.Index))
	vb.Residency = vaspace.Untouched
	vb.ClearChunk()
	vb.GPUMapped, vb.CPUMapped = false, false
	vb.CPUHasPages, vb.CPUPinned, vb.CPUStale = false, false, false
	vb.Discarded, vb.LazyDiscard = false, false
	vb.Degraded = false
	return cur
}

// evictUsed swaps the LRU victim c, block vb of allocation va, out to host
// DRAM (§2.2 step 3): a D2H transfer plus PTE teardown. For partially
// discarded blocks (§5.4 ablation) only the live 4 KiB pages move, each as
// its own small DMA operation.
func (d *Driver) evictUsed(c *gpudev.Chunk, va *vaspace.Alloc, vb *vaspace.Block, now sim.Time) sim.Time {
	d.clearRun(va)
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
		vb.ClearChunk()
		vb.RemoteAccesses = 0
		return cur
	}

	bytes, xfer := d.migrationCost(vb)
	if dead := vb.Bytes() - bytes; dead > 0 {
		// A partial discard (§5.4) left only LivePages of the block live:
		// the dead remainder never crosses the link, which is exactly the
		// "saved by discard" D2H traffic the ablation reports.
		d.t.AddSaved(metrics.D2H, uint64(dead))
	}
	cur := d.unmapBlock(dev, now)
	cur = d.reserveD2H(vb, xfer, cur)
	d.t.AddTransfer(metrics.D2H, metrics.CauseEviction, uint64(bytes))
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
	vb.ClearChunk()
	return cur
}

// migrationCost returns (bytes moved, link time) for migrating one block in
// either direction, honouring partial-discard splitting.
func (d *Driver) migrationCost(b *vaspace.Block) (units.Size, sim.Time) {
	if b.LivePages > 0 {
		n := units.Size(b.LivePages) * units.PageSize
		t := sim.Time(b.LivePages)*pageDMALatency + sim.TransferTime(uint64(n), d.link.PeakBandwidth())
		return n, t
	}
	n := b.Bytes()
	if n == units.BlockSize {
		return n, d.fullXfer
	}
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
		if int(b.GPUIndex) != gpu {
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
			int(b.RemoteAccesses) < d.p.RemoteAccessMigrateThreshold {
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

// ensureGPUBlocks makes every block of seq GPU-resident (or leaves it
// silently discarded in the lazy-hazard case), in visit order, coalescing
// contiguous host-to-device migrations into single DMA operations. When
// viaFault is true the blocks arrive via GPU page faults and fault-servicing
// costs are charged in batches of Params.FaultBatchBlocks.
//
// One scan classifies the blocks before the pass changes any (scanPass). A
// fill pass, whose every block takes a fresh chunk, then runs the lean loop
// of fill.go; any other pass visits each block through the generic action
// switch (visitBlocks).
//
// The pass clears the allocation's resident run, and forms it again when it
// visits every block in address order, every block ends a clean hit, and
// none of the allocation's chunks was evicted on the way (run.go). The
// stretch is then contiguous by construction: each block's chunk was
// touched or pushed to the MRU end in block order, and nothing else was
// pushed in between.
//
// It returns the completion time of the last operation.
func (d *Driver) ensureGPUBlocks(seq blockSeq, now sim.Time, cause metrics.Cause, viaFault bool, gpu int) (sim.Time, error) {
	cur := now
	d.clearRun(seq.a)
	d.forming = nil
	clean := seq.whole()
	if clean {
		d.forming = seq.a
	}

	misses, fill := d.scanPass(seq, gpu, viaFault)
	// Fault service cost: replayable faults are reported in batches; the
	// driver pays a batch latency plus per-block work (§2.2).
	if viaFault {
		prof := d.devs[gpu].Profile()
		total := misses
		for misses > 0 {
			n := misses
			if n > d.p.FaultBatchBlocks {
				n = d.p.FaultBatchBlocks
			}
			cur += prof.FaultBatchLatency + sim.Time(n)*prof.FaultPerBlock
			d.t.AddFaultBatch(n)
			misses -= n
		}
		if d.fi != nil && total > 0 {
			if rounds := d.fi.OverflowRounds(total); rounds > 0 {
				// The replayable fault buffer overflowed: faults beyond its
				// capacity were dropped by the hardware and re-raised, each
				// replay round costing another buffer drain.
				cur += sim.Time(rounds) * prof.FaultBatchLatency
				d.t.AddFaultReplay(rounds)
			}
		}
	}

	var stale bool
	var err error
	if fill {
		cur, clean, stale, err = d.fillBlocks(seq, cur, cause, gpu, clean)
	} else {
		cur, clean, stale, err = d.visitBlocks(seq, cur, cause, viaFault, gpu, clean)
	}
	if err != nil {
		return cur, err
	}
	if clean && d.forming == seq.a {
		seq.a.Resident = vaspace.ResidentRun{On: true, GPU: gpu, Stale: stale}
	}
	d.forming = nil
	return cur, nil
}

// scanPass classifies each block of seq once, before the pass changes any.
// For a faulting access it counts the blocks that miss; and it reports
// whether the pass is a fill pass (fill.go). A prefetch counts no misses,
// so its scan stops at the first block that rules a fill pass out.
func (d *Driver) scanPass(seq blockSeq, gpu int, viaFault bool) (misses int, fill bool) {
	fill = seq.n > 0 && d.tr == nil && d.fi == nil && !d.perBlock
	if !fill && !viaFault {
		return 0, false
	}
	for k := 0; k < seq.n; k++ {
		b := seq.at(k)
		act := d.classifyForGPU(b, gpu, viaFault)
		if act.faults() {
			misses++
		}
		if fill && act != actZero && (act != actTransfer || b.LivePages > 0) {
			fill = false
			if !viaFault {
				break
			}
		}
	}
	return misses, fill
}

// visitBlocks is ensureGPUBlocks's generic loop: it classifies each block
// of seq as the loop reaches it and dispatches it on its action. clean
// says whether the pass may form a resident run; it returns the time, and
// whether every block ended a clean hit and every host copy stale.
//
// State transitions + data movement, with H2D coalescing across
// consecutive full-block transfers. Per-block bookkeeping (map counts,
// trace records) amortizes into the same per-run flush the DMA reservation
// already uses. A coalesced run is the runCount blocks visited from
// position runStart on: a block that joins no run flushes the pending one
// first.
func (d *Driver) visitBlocks(seq blockSeq, now sim.Time, cause metrics.Cause, viaFault bool, gpu int, clean bool) (sim.Time, bool, bool, error) {
	cur, stale := now, true
	dev := d.devs[gpu]
	var runBytes units.Size
	var runCount, runStart int
	flush := func() {
		if runBytes == 0 {
			return
		}
		cur = d.flushH2D(cur, runBytes, runCount, cause)
		if d.tr != nil {
			for k := runStart; k < runStart+runCount; k++ {
				rb := seq.at(k)
				d.record(cur, trace.TransferH2D, rb, rb.Bytes())
			}
		}
		runBytes, runCount = 0, 0
	}

	for k := 0; k < seq.n; k++ {
		b := seq.at(k)
		d.blockCheckpoint("ensure-gpu", cur)
		act := d.classifyForGPU(b, gpu, viaFault)
		if act != actTransfer || b.LivePages > 0 {
			flush()
		}
		switch act {
		case actHit:
			if c := d.chunkOf(b); c.Queue() == gpudev.QueueUsed {
				dev.Touch(c)
			}
			if viaFault && b.LivePages > 0 {
				// The block's 2 MiB mapping was split by a partial
				// discard: 4 KiB PTEs blow the TLB coverage (§5.4).
				cur += splitTLBPenalty
			}
			if !viaFault {
				// A prefetch of already-resident memory neither transfers
				// nor prefaults; it only updates access recency — and that
				// bookkeeping still costs driver time (§7.5.1).
				cur += prefetchRecencyPerBlock
			}
		case actSilent:
			// Nothing: no fault, no driver knowledge. Under the
			// sanitizer's strict protocol mode this hazard panics at the
			// access instead of losing the data at some later reclaim.
			if d.p.PanicOnSilentReuse {
				panic("core: sanitizer: " + d.silentReuseDiag(b))
			}
		case actRemote:
			// The GPU reads/writes host memory through the link without
			// migrating (coherent hardware, or a zero-copy mapping for a
			// PreferCPU block). Bandwidth still bounds it. Preferred
			// blocks never promote; counter-mode blocks do.
			_, cur = d.dma.Reserve(cur, d.scaleDMA(d.link.RemoteAccessTime(uint64(b.Bytes())), cur))
			d.t.AddTransfer(metrics.H2D, metrics.CauseRemote, uint64(b.Bytes()))
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
				return cur, false, false, err
			}
		case actPeerDead:
			// Discarded on a peer GPU: reclaim the remote chunk without a
			// peer transfer, then fall through to fresh zeroed memory here.
			d.t.AddPeerSaved(uint64(b.Bytes()))
			remote := d.devs[b.GPUIndex]
			old := d.chunkOf(b)
			remote.Detach(old)
			cur = d.reclaimDiscarded(old, cur) // clears b's chunk and discard state
			remote.PushFree(old)
			fallthrough
		case actZero:
			var err error
			cur, err = d.populateZeroed(b, gpu, cur)
			if err != nil {
				return cur, false, false, err
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
					clean = false
					continue
				}
			}
			chunk, ready, err := d.allocChunk(b, gpu, cur)
			if err != nil {
				return cur, false, false, err
			}
			cur = ready
			if b.LivePages > 0 {
				// Partial block: page-granular migration, not coalesced.
				n, t := d.migrationCost(b)
				_, cur = d.dma.Reserve(cur, d.scaleDMA(t, cur))
				d.t.AddTransfer(metrics.H2D, cause, uint64(n))
				d.t.AddMap(1)
				d.record(cur, trace.TransferH2D, b, n)
			} else {
				// PTE establishment for bulk migrations is pipelined with
				// the copy engine (unlike recovery remaps, which sit on the
				// critical path), so only the bookkeeping is counted — and
				// that bookkeeping amortizes into the run's flush.
				if runCount == 0 {
					runStart = k
				}
				runBytes += b.Bytes()
				runCount++
			}
			d.migratedIn(b, gpu, chunk)
		}
		if clean {
			clean, stale = cleanHit(b, gpu), stale && b.CPUStale
		}
	}
	flush()
	return cur, clean, stale, nil
}

// flushH2D issues a coalesced run of count whole-block host-to-device
// migrations, bytes in all, as one DMA operation from cur, and counts its
// transfer and its count maps. It returns the time the operation ends.
func (d *Driver) flushH2D(cur sim.Time, bytes units.Size, count int, cause metrics.Cause) sim.Time {
	_, end := d.dma.Reserve(cur, d.scaleDMA(d.link.TransferTime(uint64(bytes)), cur))
	d.t.AddTransfer(metrics.H2D, cause, uint64(bytes))
	d.t.AddMap(count)
	return end
}

// migratedIn makes b GPU-resident on gpu in chunk c, into which its data
// has migrated from the host (the caller charges the transfer): the chunk
// is fully prepared (live pages moved, the rest zeroed below cost), and the
// host pages stay pinned while the block is GPU-mapped (§2.2).
func (d *Driver) migratedIn(b *vaspace.Block, gpu int, c *gpudev.Chunk) {
	b.SetChunk(gpu, c.ID())
	c.PreparedPages = gpudev.FullyPrepared
	if !b.CPUPinned {
		d.host.Pin(b.Bytes())
		b.CPUPinned = true
	}
	if b.ReadMostly {
		// SetReadMostly: this is a read-only duplication — the host copy
		// stays valid and mapped.
		b.CPUStale = false
	} else {
		b.CPUMapped = false
		b.CPUStale = true
	}
	b.Residency = vaspace.GPUResident
	b.GPUMapped = true
	b.Degraded = false
	b.RemoteAccesses = 0
	d.devs[gpu].PushUsed(c)
}

// recoverDiscarded handles re-use of a block that was discarded but whose
// chunk is still on the discarded queue (§5.7): the chunk moves back to the
// MRU end of the used queue. Under UvmDiscard the eagerly destroyed
// mappings must be re-established; under UvmDiscardLazy nothing was
// destroyed. A chunk that was never fully prepared is re-zeroed.
func (d *Driver) recoverDiscarded(b *vaspace.Block, now sim.Time, viaFault bool) sim.Time {
	cur := now
	c := d.chunkOf(b)
	dev := d.devs[b.GPUIndex]
	dev.Detach(c)
	if !b.GPUMapped {
		cur += dev.Profile().MapPerBlock
		d.t.AddMap(1)
		b.GPUMapped = true
	}
	if !d.p.PreparedTracking || c.PreparedPages < gpudev.FullyPrepared {
		cur += dev.Profile().ZeroTimeBlock()
		d.t.AddZeroFill(1, 0)
		c.PreparedPages = gpudev.FullyPrepared
		d.zeroData(b)
		d.record(cur, trace.ZeroFill, b, b.Bytes())
	}
	c.NeedsUnmapOnReclaim = false
	b.Discarded, b.LazyDiscard = false, false
	dev.PushUsed(c)
	return cur
}

// migratePeer moves a block between GPUs over the peer fabric (§2.3): a
// chunk is allocated on the target, the data crosses the GPU-to-GPU link
// (no host DRAM involvement), and the source chunk is freed.
func (d *Driver) migratePeer(b *vaspace.Block, gpu int, now sim.Time) (sim.Time, error) {
	src := d.devs[b.GPUIndex]
	oldChunk := d.chunkOf(b)
	chunk, cur, err := d.allocChunk(b, gpu, now)
	if err != nil {
		return cur, err
	}
	n := uint64(b.Bytes())
	end, ok := d.reserveTransfer(d.peer, faultinject.LinkPeer, peerLink.TransferTime(n), cur)
	if ok {
		cur = end
		d.t.AddPeer(n)
	} else {
		// The peer fabric will not carry this block: bounce it through
		// host DRAM on the DMA engine instead (D2H off the source, H2D
		// onto the target). The bounce legs are not re-injected — the
		// degradation path must terminate.
		_, mid := d.dma.Reserve(end, d.scaleDMA(d.link.TransferTime(n), end))
		_, cur = d.dma.Reserve(mid, d.scaleDMA(d.link.TransferTime(n), mid))
		d.t.AddTransfer(metrics.D2H, metrics.CauseFault, n)
		d.t.AddTransfer(metrics.H2D, metrics.CauseFault, n)
		d.t.AddDegraded(n)
	}
	d.record(cur, trace.TransferPeer, b, b.Bytes())
	cur = d.unmapBlock(src, cur)
	src.Detach(oldChunk)
	src.PushFree(oldChunk)
	chunk.PreparedPages = gpudev.FullyPrepared
	b.SetChunk(gpu, chunk.ID())
	b.GPUMapped = true
	b.RemoteAccesses = 0
	d.devs[gpu].PushUsed(chunk)
	return cur, nil
}

// populateZeroed allocates, zeroes, and maps a fresh chunk for a block with
// no live data: first touch of an untouched block, or re-population of a
// block whose contents were discarded while CPU-resident — the latter is
// the paper's saved H2D (§5.3 scenario two).
func (d *Driver) populateZeroed(b *vaspace.Block, gpu int, now sim.Time) (sim.Time, error) {
	chunk, cur, err := d.allocChunk(b, gpu, now)
	if err != nil {
		return cur, err
	}
	if b.Discarded {
		d.dropDiscarded(b)
	}
	prof := d.devs[gpu].Profile()
	cur += prof.ZeroTimeBlock() + prof.MapPerBlock
	d.zeroFilled(b, gpu, chunk, cur)
	return cur, nil
}

// dropDiscarded forgets the data of b, discarded while host-resident, once a
// chunk to populate with zeros has been found for it: the H2D transfer the
// non-discard driver would have made is saved, the host pages are
// released, and reads observe zeros. It comes after allocChunk, so that a
// run aborted at the eviction's checkpoint, or a failed allocation, leaves
// the block host-resident with its pages.
func (d *Driver) dropDiscarded(b *vaspace.Block) {
	d.t.AddSaved(metrics.H2D, uint64(b.Bytes()))
	if b.CPUHasPages {
		if b.CPUPinned {
			d.host.Unpin(b.Bytes())
		}
		d.host.Release(b.Bytes())
		b.CPUHasPages, b.CPUPinned = false, false
	}
	d.zeroData(b)
	b.Discarded, b.LazyDiscard = false, false
}

// zeroFilled makes b GPU-resident on gpu in chunk c, zero-filled and mapped
// (the caller charges the time, which ends at cur).
func (d *Driver) zeroFilled(b *vaspace.Block, gpu int, c *gpudev.Chunk, cur sim.Time) {
	d.t.AddZeroFill(1, 0)
	d.t.AddMap(1)
	c.PreparedPages = gpudev.FullyPrepared
	b.SetChunk(gpu, c.ID())
	b.Residency = vaspace.GPUResident
	b.GPUMapped = true
	b.CPUMapped = false
	b.Degraded = false
	d.devs[gpu].PushUsed(c)
	d.record(cur, trace.ZeroFill, b, b.Bytes())
}

// ensureCPUBlock makes one block CPU-accessible. GPU-resident live data
// migrates D2H; discarded GPU data is reclaimed without a transfer and the
// host observes zeros (§5.3 scenario one from the CPU side). Read-mostly
// GPU-resident blocks are *duplicated* to the host on reads rather than
// migrated (the write-intent collapse happens in cpuAccessBlock).
func (d *Driver) ensureCPUBlock(b *vaspace.Block, now sim.Time, cause metrics.Cause, forWrite bool) sim.Time {
	d.clearRun(d.space.AllocOf(b))
	cur := now
	switch b.Residency {
	case vaspace.CPUResident:
		if !b.CPUMapped {
			// The eager discard destroyed the CPU mapping; re-fault.
			cur += cpuMinorFault
			b.CPUMapped = true
		}
	case vaspace.Untouched:
		if err := d.host.Reserve(b.Bytes()); err != nil {
			panic(err)
		}
		cur += cpuFirstTouchPerBlock
		b.CPUHasPages = true
		b.CPUMapped = true
		b.Residency = vaspace.CPUResident
	case vaspace.GPUResident:
		if isDuplicated(b) {
			// Valid host copy already: a local access.
			if !b.CPUMapped {
				cur += cpuMinorFault
				b.CPUMapped = true
			}
			return cur
		}
		if b.ReadMostly && !b.Discarded && !forWrite {
			// Duplicate the block to the host, keeping the GPU copy: a
			// D2H copy, after which reads are local on both sides.
			bytes, xfer := d.migrationCost(b)
			cur = d.reserveD2H(b, xfer, cur)
			d.t.AddTransfer(metrics.D2H, cause, uint64(bytes))
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
		c := d.chunkOf(b)
		dev := d.devs[b.GPUIndex]
		if b.Discarded {
			// Reclaim without transferring: saved D2H.
			dev.Detach(c)
			if c.NeedsUnmapOnReclaim {
				cur = d.unmapBlock(dev, cur)
			}
			d.t.AddSaved(metrics.D2H, uint64(b.Bytes()))
			dev.PushFree(c)
			d.zeroData(b)
			b.Discarded, b.LazyDiscard = false, false
		} else {
			dev.Detach(c)
			bytes, xfer := d.migrationCost(b)
			cur = d.unmapBlock(dev, cur)
			cur = d.reserveD2H(b, xfer, cur)
			d.t.AddTransfer(metrics.D2H, cause, uint64(bytes))
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
		b.ClearChunk()
		b.Residency = vaspace.CPUResident
	}
	return cur
}
