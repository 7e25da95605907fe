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

// GPUAccess services one GPU-side access to a set of blocks during kernel
// execution: non-resident blocks fault in (with batched fault service and
// coalesced migrations), resident blocks update LRU recency. It returns the
// time the access can proceed.
//
// Lazily discarded blocks that are still resident are touched silently —
// the hardware has no per-PTE dirty bits, so the driver never observes the
// access and the block stays discarded (§5.2). A write through such a
// mapping is the protocol hazard UvmDiscardLazy documents: issue the
// mandatory prefetch first.
func (d *Driver) GPUAccess(blocks []*vaspace.Block, mode AccessMode, now sim.Time) (sim.Time, error) {
	return d.GPUAccessOn(0, blocks, mode, now)
}

// GPUAccessOn is GPUAccess targeted at a specific GPU (multi-GPU systems):
// blocks resident on a peer migrate over the peer fabric.
func (d *Driver) GPUAccessOn(gpu int, blocks []*vaspace.Block, mode AccessMode, now sim.Time) (sim.Time, error) {
	d.checkpoint("GPUAccess", now)
	now = d.maybePoison(now)
	done, err := d.ensureGPUBlocks(blocks, now, metrics.CauseFault, true, gpu)
	if err != nil {
		return done, err
	}
	for _, b := range blocks {
		if mode.reads() {
			d.record(done, trace.GPURead, b, b.Bytes())
		}
		if mode.writes() {
			d.record(done, trace.GPUWrite, b, b.Bytes())
			if isDuplicated(b) {
				// A write to a read-mostly duplicate collapses it: the
				// host copy is dropped (§ SetReadMostly semantics).
				done = d.collapseDupToGPU(b, done)
			} else if b.Residency == vaspace.GPUResident && b.Chunk != nil {
				b.CPUStale = true
			}
		}
	}
	d.verify("GPUAccess")
	return done, nil
}

// CPUAccess services host-side accesses: GPU-resident data migrates back
// (or is reclaimed without a transfer if discarded), untouched blocks
// populate zero-filled host pages. A write revives a discarded block — a
// value written after the discard is guaranteed to be seen (§4.1).
func (d *Driver) CPUAccess(blocks []*vaspace.Block, mode AccessMode, now sim.Time) sim.Time {
	cur := d.maybePoison(now)
	for _, b := range blocks {
		cur = d.cpuAccessBlock(b, mode, cur)
	}
	d.verify("CPUAccess")
	return cur
}

// CPUAccessRange is CPUAccess over [off, off+length) of one allocation,
// visiting the covered blocks by index instead of requiring the caller to
// materialize a block list — the host-access path for large buffers, where
// building a multi-thousand-entry []*Block per call dominated allocations.
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

// cpuAccessBlock services one block of a host-side access: the shared body
// of CPUAccess and CPUAccessRange.
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

// PrefetchToGPUOn prefetches toward a specific GPU.
func (d *Driver) PrefetchToGPUOn(gpu int, a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	d.checkpoint("PrefetchToGPU", now)
	blocks, err := a.AppendBlockRange(d.rangeScratch[:0], off, length, false)
	d.rangeScratch = blocks[:0]
	if err != nil {
		return now, err
	}
	done, err := d.ensureGPUBlocks(blocks, now, metrics.CausePrefetch, false, gpu)
	if err != nil {
		return done, err
	}
	d.verify("PrefetchToGPU")
	return done, nil
}

// PrefetchToCPU migrates the covered blocks toward the host.
func (d *Driver) PrefetchToCPU(a *vaspace.Alloc, off, length uint64, now sim.Time) (sim.Time, error) {
	blocks, err := a.AppendBlockRange(d.rangeScratch[:0], off, length, false)
	d.rangeScratch = blocks[:0]
	if err != nil {
		return now, err
	}
	cur := now
	for _, b := range blocks {
		d.blockCheckpoint("PrefetchToCPU", cur)
		cur = d.ensureCPUBlock(b, cur, metrics.CausePrefetch, false)
	}
	d.verify("PrefetchToCPU")
	return cur, nil
}
