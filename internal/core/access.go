package core

import (
	"fmt"

	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/vaspace"
)

// AccessMode describes how a processor uses a range: reading existing data,
// overwriting it without reading, or both. This is the application-level
// knowledge the RMT analysis keys on — UVM itself cannot observe it, which
// is exactly the semantic gap the discard directive bridges (§3.1).
type AccessMode int

const (
	// Read consumes the range's current contents.
	Read AccessMode = iota
	// Write overwrites the range without reading its previous contents.
	Write
	// ReadWrite reads then updates the range.
	ReadWrite
)

// String names the mode.
func (m AccessMode) String() string {
	switch m {
	case Read:
		return "R"
	case Write:
		return "W"
	case ReadWrite:
		return "RW"
	default:
		return fmt.Sprintf("AccessMode(%d)", int(m))
	}
}

func (m AccessMode) reads() bool  { return m == Read || m == ReadWrite }
func (m AccessMode) writes() bool { return m == Write || m == ReadWrite }

// GPUAccess services one GPU-side access to [off, off+length) of
// allocation a during kernel execution: non-resident blocks fault in (with
// batched fault service and coalesced migrations), resident blocks update
// LRU recency. It returns the time the access can proceed.
//
// Lazily discarded blocks that are still resident are touched silently —
// the hardware has no per-PTE dirty bits, so the driver never observes the
// access and the block stays discarded (§5.2). A write through such a
// mapping is the protocol hazard UvmDiscardLazy documents: issue the
// mandatory prefetch first.
func (d *Driver) GPUAccess(a *vaspace.Alloc, off, length uint64, mode AccessMode, now sim.Time) (sim.Time, error) {
	return d.GPUAccessOn(0, a, off, length, nil, mode, now)
}

// GPUAccessOn is GPUAccess targeted at a specific GPU (multi-GPU systems):
// blocks resident on a peer migrate over the peer fabric. order, when
// non-nil, lists the indexes of the covered blocks in the order the access
// visits them, each once (a Scatter pass's shuffle of the span); nil visits
// them in address order. An access over the whole allocation in address
// order that finds its resident run standing (run.go) is served without
// visiting the blocks, unless a trace recorder needs their events.
func (d *Driver) GPUAccessOn(gpu int, a *vaspace.Alloc, off, length uint64, order []int, mode AccessMode, now sim.Time) (sim.Time, error) {
	d.checkpoint("GPUAccess", now)
	seq, err := accessSeq(a, off, length, order)
	if err != nil {
		return now, err
	}
	now = d.maybePoison(now)
	done := now
	// Through the run every block is a clean hit: no fault and no transfer.
	// A write only marks each host copy stale, as the write loop below
	// would for a clean hit that is not read-mostly, so only a recorder
	// needs the blocks visited below.
	run := d.onRun(seq, gpu, false)
	if run {
		d.touchRun(a, now, 0)
		if mode.writes() && !a.Resident.Stale {
			for i := range seq.span {
				seq.span[i].CPUStale = true
			}
		}
	} else if done, err = d.ensureGPUBlocks(seq, now, metrics.CauseFault, true, gpu); err != nil {
		return done, err
	}
	if d.tr != nil || (mode.writes() && !run) { // else the access changes nothing per block
		for k := 0; k < seq.n; k++ {
			b := seq.at(k)
			if mode.reads() {
				d.record(done, trace.GPURead, b, b.Bytes())
			}
			if mode.writes() {
				d.record(done, trace.GPUWrite, b, b.Bytes())
				if isDuplicated(b) {
					// A write to a read-mostly duplicate collapses it: the
					// host copy is dropped (§ SetReadMostly semantics).
					done = d.collapseDupToGPU(b, done)
				} else if b.Residency == vaspace.GPUResident && b.HasChunk() {
					b.CPUStale = true
				}
			}
		}
	}
	if mode.writes() && a.Resident.On {
		// The access went through the run or formed it, and has just made
		// every host copy stale.
		a.Resident.Stale = true
	}
	d.verify("GPUAccess")
	return done, nil
}

// CPUAccessRange services host-side accesses to [off, off+length) of
// allocation a: GPU-resident data migrates back (or is reclaimed without a
// transfer if discarded), untouched blocks populate zero-filled host pages.
// A write revives a discarded block — a value written after the discard is
// guaranteed to be seen (§4.1). It visits the covered blocks by index, so a
// large buffer's access builds no block list.
func (d *Driver) CPUAccessRange(a *vaspace.Alloc, off, length uint64, mode AccessMode, now sim.Time) (sim.Time, error) {
	first, last, err := a.BlockSpan(off, length, false)
	if err != nil {
		return now, err
	}
	cur := d.maybePoison(now)
	for i := first; i <= last; i++ {
		cur = d.cpuAccessBlock(a.Block(i), mode, cur)
	}
	d.verify("CPUAccess")
	return cur, nil
}

// cpuAccessBlock services one block of a host-side access.
func (d *Driver) cpuAccessBlock(b *vaspace.Block, mode AccessMode, cur sim.Time) sim.Time {
	d.blockCheckpoint("CPUAccess", cur)
	cur = d.ensureCPUBlock(b, cur, metrics.CauseFault, mode.writes())
	if mode.reads() {
		d.record(cur, trace.CPURead, b, b.Bytes())
	}
	if mode.writes() {
		d.record(cur, trace.CPUWrite, b, b.Bytes())
		if isDuplicated(b) {
			// A host write to a read-mostly duplicate collapses it:
			// the GPU copy is dropped.
			cur = d.collapseDupToCPU(b, cur)
		}
		b.Discarded, b.LazyDiscard = false, false
	}
	return cur
}

// PrefetchToGPU implements cudaMemPrefetchAsync toward the GPU: it
// pre-faults the covered blocks so subsequent kernel accesses are local
// (§2.1), migrating CPU-resident data, zero-populating untouched or
// discarded regions, and recovering still-resident discarded chunks. Under
// UvmDiscardLazy this prefetch is also the mandatory operation that re-sets
// the software dirty bits (§5.2).
func (d *Driver) PrefetchToGPU(a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	return d.PrefetchToGPUOn(0, a, off, length, now)
}

// PrefetchToGPUOn prefetches toward a specific GPU. A prefetch of the
// whole allocation that finds its run standing on gpu (run.go) is served
// without visiting the blocks: by a recency touch when they are resident,
// or by recovering them when they are discarded.
func (d *Driver) PrefetchToGPUOn(gpu int, a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	d.checkpoint("PrefetchToGPU", now)
	seq, err := accessSeq(a, off, length, nil)
	if err != nil {
		return now, err
	}
	switch {
	case d.onRun(seq, gpu, false):
		// Every block is a clean hit: the prefetch only updates recency,
		// at prefetchRecencyPerBlock of driver time per block.
		done := d.touchRun(a, now, prefetchRecencyPerBlock)
		d.verify("PrefetchToGPU")
		return done, nil
	case d.onRun(seq, gpu, true):
		// Every block is discarded with its chunk still here: recover them.
		done := d.recoverRun(a, now)
		d.verify("PrefetchToGPU")
		return done, nil
	}
	done, err := d.ensureGPUBlocks(seq, now, metrics.CausePrefetch, false, gpu)
	if err != nil {
		return done, err
	}
	d.verify("PrefetchToGPU")
	return done, nil
}

// PrefetchToCPU migrates the covered blocks toward the host.
func (d *Driver) PrefetchToCPU(a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	first, last, err := a.BlockSpan(off, length, false)
	if err != nil {
		return now, err
	}
	cur := now
	for i := first; i <= last; i++ {
		d.blockCheckpoint("PrefetchToCPU", cur)
		cur = d.ensureCPUBlock(a.Block(i), cur, metrics.CausePrefetch, false)
	}
	d.verify("PrefetchToCPU")
	return cur, nil
}
