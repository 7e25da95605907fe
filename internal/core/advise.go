package core

import (
	"fmt"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/vaspace"
)

// Advice is a cudaMemAdvise-style placement hint. The paper's related work
// frames the discard directive against the madvise family (§8); real UVM
// exposes these hints alongside prefetch, and they compose with discard:
// advice shapes where *live* data sits, discard says when data is *dead*.
type Advice int

const (
	// AdviseSetPreferredCPU pins the range's home to host DRAM: GPU
	// accesses map it remotely (zero-copy over the interconnect) instead
	// of migrating it.
	AdviseSetPreferredCPU Advice = iota
	// AdviseSetPreferredGPU pins the range's home to GPU memory: the
	// eviction process passes over it while other victims exist.
	AdviseSetPreferredGPU
	// AdviseUnsetPreferred clears the preferred location.
	AdviseUnsetPreferred
	// AdviseSetReadMostly allows read-only duplication on both
	// processors: reads become local everywhere; a write from either side
	// collapses the duplicate.
	AdviseSetReadMostly
	// AdviseUnsetReadMostly clears the read-mostly hint (any existing
	// duplicate collapses toward the current authoritative copy).
	AdviseUnsetReadMostly
)

// String names the advice like the CUDA constants.
func (a Advice) String() string {
	switch a {
	case AdviseSetPreferredCPU:
		return "SetPreferredLocation(CPU)"
	case AdviseSetPreferredGPU:
		return "SetPreferredLocation(GPU)"
	case AdviseUnsetPreferred:
		return "UnsetPreferredLocation"
	case AdviseSetReadMostly:
		return "SetReadMostly"
	case AdviseUnsetReadMostly:
		return "UnsetReadMostly"
	default:
		return fmt.Sprintf("Advice(%d)", int(a))
	}
}

// MemAdvise applies a placement hint to [off, off+length). Advice is
// metadata: it costs little itself and changes how later faults,
// prefetches, and evictions treat the covered blocks.
func (d *Driver) MemAdvise(a *vaspace.Alloc, off, length uint64, adv Advice, now sim.Time) (sim.Time, error) {
	first, last, err := a.BlockSpan(off, length, false)
	if err != nil {
		return now, err
	}
	d.clearRun(a)
	cur := now
	for i := first; i <= last; i++ {
		b := a.Block(i)
		switch adv {
		case AdviseSetPreferredCPU:
			b.Preferred = vaspace.PreferCPU
		case AdviseSetPreferredGPU:
			b.Preferred = vaspace.PreferGPU
		case AdviseUnsetPreferred:
			b.Preferred = vaspace.PreferNone
		case AdviseSetReadMostly:
			b.ReadMostly = true
		case AdviseUnsetReadMostly:
			if isDuplicated(b) {
				cur = d.collapseDupToGPU(b, cur)
			}
			b.ReadMostly = false
		default:
			return cur, fmt.Errorf("core: unknown advice %v", adv)
		}
	}
	d.verify("MemAdvise")
	return cur, nil
}

// isDuplicated reports whether a read-mostly block currently has valid
// copies on both processors.
func isDuplicated(b *vaspace.Block) bool {
	return b.ReadMostly && b.Residency == vaspace.GPUResident &&
		b.CPUHasPages && !b.CPUStale
}

// collapseDupToGPU drops the host copy of a duplicated block, leaving the
// GPU copy authoritative (used when the GPU writes, or the hint is
// removed while the block is GPU-resident).
func (d *Driver) collapseDupToGPU(b *vaspace.Block, now sim.Time) sim.Time {
	cur := now + cpuMinorFault // host-side unmap of the duplicate
	if b.CPUPinned {
		d.host.Unpin(b.Bytes())
		b.CPUPinned = false
	}
	d.host.Release(b.Bytes())
	b.CPUHasPages = false
	b.CPUMapped = false
	b.CPUStale = false
	return cur
}

// collapseDupToCPU drops the GPU copy of a duplicated block, leaving the
// host copy authoritative (used when the CPU writes).
func (d *Driver) collapseDupToCPU(b *vaspace.Block, now sim.Time) sim.Time {
	cur := now
	if c := d.chunkOf(b); c != nil {
		dev := d.devs[b.GPUIndex]
		dev.Detach(c)
		dev.PushFree(c)
		b.ClearChunk()
		cur += dev.Profile().UnmapPerBlock
		d.t.AddUnmap(1)
	}
	b.GPUMapped = false
	b.Residency = vaspace.CPUResident
	b.CPUMapped = true
	return cur
}
