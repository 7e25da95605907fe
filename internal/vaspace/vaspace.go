// Package vaspace models the unified virtual address space that UVM
// provides across the host and the GPU (§2.1): allocations carved into
// 2 MiB virtual blocks, each with residency, mapping, discard, and
// preparedness state.
//
// Allocations optionally carry backing bytes so that example programs can
// compute real results through the simulated memory system; the driver
// zeroes the backing of reclaimed discarded blocks, which makes the paper's
// §4.1 semantics ("a read after discard returns zeros or some previously
// written values") directly observable and testable.
package vaspace

import (
	"fmt"
	"math"
	"sort"

	"uvmdiscard/internal/units"
)

// Residency says where a block's authoritative data currently lives.
type Residency uint8

const (
	// Untouched blocks have never been populated anywhere; first touch
	// maps zero-filled memory at the touching processor (§2.2). Reclaimed
	// discarded blocks also return to this state: their next use observes
	// zeros.
	Untouched Residency = iota
	// CPUResident blocks live in host DRAM.
	CPUResident
	// GPUResident blocks live in a GPU chunk (Block.HasChunk).
	GPUResident
)

// String names the residency.
func (r Residency) String() string {
	switch r {
	case Untouched:
		return "untouched"
	case CPUResident:
		return "cpu"
	case GPUResident:
		return "gpu"
	default:
		return fmt.Sprintf("Residency(%d)", int(r))
	}
}

// Preference pins a block's home location (the cudaMemAdvise
// SetPreferredLocation hint).
type Preference uint8

const (
	// PreferNone lets the fault-driven policy place the block.
	PreferNone Preference = iota
	// PreferCPU keeps the block in host DRAM; GPU accesses map it
	// remotely instead of migrating.
	PreferCPU
	// PreferGPU keeps the block in GPU memory; the eviction process
	// avoids it while other victims exist.
	PreferGPU
)

// String names the preference.
func (p Preference) String() string {
	switch p {
	case PreferNone:
		return "none"
	case PreferCPU:
		return "cpu"
	case PreferGPU:
		return "gpu"
	default:
		return fmt.Sprintf("Preference(%d)", int(p))
	}
}

// Block is one 2 MiB-aligned virtual block of an allocation — the
// granularity at which the driver migrates, discards, and evicts (§5.4).
//
// A block holds no pointer: its allocation is an id (Space.ByID resolves
// it) and its chunk an index on its GPU's device. An allocation's block
// array is then plain data the GC never scans, and the driver's per-block
// updates pay no write barrier.
type Block struct {
	// Alloc is the owning allocation's id.
	Alloc int32
	// Index is the block's position within the allocation.
	Index int32

	// chunk is one more than the id of the GPU chunk holding the block's
	// data on GPU GPUIndex, or 0 when it holds none (see Chunk).
	chunk int32
	// GPUIndex identifies which GPU holds the chunk (multi-GPU systems);
	// meaningful only while GPUResident.
	GPUIndex int32

	// RemoteAccesses counts GPU accesses served remotely over a coherent
	// interconnect since the block last became CPU-resident; the driver's
	// access-counter policy migrates the block once it crosses a
	// threshold (§2.3).
	RemoteAccesses int32

	// bytes is the block's size (Bytes).
	bytes uint32

	// LivePages, when non-zero, records that a *partial* discard (the
	// §5.4 ablation) left this many 4 KiB pages of live data in the
	// block; migrating the block then moves only the live pages but at
	// 4 KiB DMA granularity, which is far slower per byte.
	LivePages int16

	// Residency is where the data lives now.
	Residency Residency
	// Preferred is the SetPreferredLocation hint for this block.
	Preferred Preference

	// CPUHasPages reports that host physical pages exist for this block
	// (counted against host DRAM). They may be the live copy (CPUResident)
	// or a pinned stale copy kept while the block is GPU-mapped.
	CPUHasPages bool
	// CPUPinned reports that the host pages are pinned (they remain
	// pinned while the block is GPU-mapped, §2.2). Implies CPUHasPages.
	CPUPinned bool
	// CPUStale means the pinned host copy predates newer GPU writes; a
	// D2H migration must actually transfer (it always does in UVM — the
	// flag exists for bookkeeping and tests).
	CPUStale bool

	// GPUMapped reports whether GPU PTEs exist for the block. UvmDiscard
	// eagerly destroys them (§5.1); a later GPU access then faults.
	GPUMapped bool
	// CPUMapped reports whether CPU PTEs exist (also destroyed by the
	// eager discard).
	CPUMapped bool

	// Discarded is the paper's directive state: the block's contents are
	// dead and its next transfer may be skipped (§4.1).
	Discarded bool
	// LazyDiscard marks that the discard used the UvmDiscardLazy path:
	// mappings were kept and a software dirty bit was cleared instead
	// (§5.2). Meaningful only while Discarded.
	LazyDiscard bool

	// ReadMostly is the SetReadMostly hint: the block may be *duplicated*
	// read-only on both processors so reads are local everywhere. The
	// block is currently duplicated when it is GPUResident with
	// CPUHasPages and a non-stale host copy; a write from either side
	// collapses the duplication.
	ReadMostly bool

	// Degraded marks a CPU-resident block whose migration to the GPU
	// exhausted its retry budget (fault injection): until a prefetch
	// succeeds, faulting GPU accesses are served over the interconnect at
	// coherent host-pinned cost instead of re-attempting the migration.
	Degraded bool
}

// Bytes returns the block's size: BlockSize except possibly for the final
// block of an unaligned allocation, which covers only the remainder.
func (b *Block) Bytes() units.Size { return units.Size(b.bytes) }

// Chunk returns the id of the chunk holding the block's data on GPU
// GPUIndex, and whether the block holds one.
func (b *Block) Chunk() (id int, ok bool) { return int(b.chunk) - 1, b.chunk != 0 }

// HasChunk reports whether the block holds a GPU chunk.
func (b *Block) HasChunk() bool { return b.chunk != 0 }

// SetChunk records that chunk id of GPU gpu holds the block's data. The
// chunk and its GPU are always set together: a chunk id names a chunk only
// on its own device.
func (b *Block) SetChunk(gpu, id int) {
	b.chunk = int32(id) + 1
	b.GPUIndex = int32(gpu)
}

// ClearChunk records that the block holds no GPU chunk. GPUIndex keeps its
// last value.
func (b *Block) ClearChunk() { b.chunk = 0 }

// Alloc is one unified-memory allocation (cudaMallocManaged result).
type Alloc struct {
	id     int
	name   string
	base   uint64
	size   units.Size
	blocks []Block
	freed  bool

	backing []byte // lazily allocated functional payload

	// Resident is the allocation's resident run: driver state that
	// internal/core keeps here, as it keeps Block's fields. vaspace never
	// reads it.
	Resident ResidentRun
}

// ResidentRun says that an allocation is wholly resident on one GPU in a
// shape the driver can serve without visiting its blocks. While On, every
// block is GPU-resident on GPU with no live-page split and not read-mostly,
// and the blocks' chunks lie contiguously in block order on one of that
// GPU's queues:
//
//   - resident (Discarded false): every block is a clean hit (not discarded,
//     its chunk on the used queue);
//   - discarded: every block is discarded, lazily iff Lazy, and its chunk is
//     fully prepared and on the discarded queue.
//
// Stale says that every block's host copy is already stale
// (Block.CPUStale), so a GPU write through the run changes no block. The
// zero value is no run.
type ResidentRun struct {
	On        bool
	GPU       int
	Stale     bool
	Discarded bool
	Lazy      bool
}

// ID returns the allocation's id within its space.
func (a *Alloc) ID() int { return a.id }

// Name returns the debug name given at allocation.
func (a *Alloc) Name() string { return a.name }

// Base returns the starting virtual address (2 MiB aligned).
func (a *Alloc) Base() uint64 { return a.base }

// Size returns the requested size in bytes.
func (a *Alloc) Size() units.Size { return a.size }

// NumBlocks returns how many 2 MiB blocks cover the allocation.
func (a *Alloc) NumBlocks() int { return len(a.blocks) }

// Freed reports whether the allocation has been freed.
func (a *Alloc) Freed() bool { return a.freed }

// Block returns the i'th block.
func (a *Alloc) Block(i int) *Block { return &a.blocks[i] }

// Span returns blocks first..last (inclusive) as a slice of the
// allocation's own block array: a driver loop then visits a span without a
// pointer table or a per-block lookup. It aliases the allocation's blocks,
// so callers change them through it and must not keep it past the
// operation.
func (a *Alloc) Span(first, last int) []Block { return a.blocks[first : last+1] }

// BlockSpan resolves [off, off+length) to inclusive block indices; an
// empty span is reported as last < first. When whole is true only blocks
// *fully* contained in the range count — the §5.4 rule that discard prefers
// full 2 MiB regions and ignores partial ones. Callers visit the span with
// Block(i) instead of materializing a []*Block.
func (a *Alloc) BlockSpan(off, length units.Size, whole bool) (first, last int, err error) {
	if off+length > a.size {
		return 0, -1, fmt.Errorf("vaspace: range [%d,+%d) outside %s (size %d)",
			off, length, a.name, a.size)
	}
	if length == 0 {
		return 0, -1, nil
	}
	if whole {
		firstByte := units.AlignUp(off, units.BlockSize)
		lastByte := units.AlignDown(off+length, units.BlockSize)
		// The final partial block of the allocation counts as whole if the
		// range covers the allocation to its end.
		if off+length == a.size {
			lastByte = a.size
		}
		if lastByte <= firstByte {
			return 0, -1, nil
		}
		return int(firstByte / units.BlockSize), units.BlocksIn(lastByte) - 1, nil
	}
	return int(off / units.BlockSize), int((off + length - 1) / units.BlockSize), nil
}

// Data returns the allocation's backing bytes, allocating them on first
// use. Functional example programs read and write through this; the driver
// zeroes sub-ranges when discarded data is reclaimed.
func (a *Alloc) Data() []byte {
	if a.backing == nil {
		a.backing = make([]byte, a.size)
	}
	return a.backing
}

// HasData reports whether backing bytes were materialized.
func (a *Alloc) HasData() bool { return a.backing != nil }

// ZeroBlockData zeroes the backing bytes of one block, if backing exists.
// Called by the driver when a discarded block's physical memory is
// reclaimed: subsequent reads observe zeros (§4.1).
func (a *Alloc) ZeroBlockData(idx int) {
	if a.backing == nil {
		return
	}
	start := units.Size(idx) * units.BlockSize
	clear(a.backing[start : start+a.blocks[idx].Bytes()])
}

// Space is a unified virtual address space: an ordered set of allocations.
type Space struct {
	nextVA uint64
	// byID holds every allocation ever made at its id (ids count up from
	// 0), nil once freed: Block.Alloc resolves in one index.
	byID    []*Alloc
	ordered []*Alloc
}

// NewSpace returns an empty address space. VAs start above zero so that
// address 0 is never valid.
func NewSpace() *Space {
	// Pre-size for a typical workload's handful of buffers so the first few
	// Alloc calls don't grow the map and ordered list step by step.
	return &Space{
		nextVA:  uint64(units.BlockSize),
		byID:    make([]*Alloc, 0, 8),
		ordered: make([]*Alloc, 0, 8),
	}
}

// Alloc reserves size bytes of 2 MiB-aligned virtual address space.
func (s *Space) Alloc(name string, size units.Size) (*Alloc, error) {
	if size == 0 {
		return nil, fmt.Errorf("vaspace: zero-size allocation %q", name)
	}
	n := units.BlocksIn(size)
	if n > math.MaxInt32 || len(s.byID) == math.MaxInt32 {
		return nil, fmt.Errorf("vaspace: allocation %q of %d blocks overflows the block table", name, n)
	}
	a := &Alloc{
		id:     len(s.byID),
		name:   name,
		base:   s.nextVA,
		size:   size,
		blocks: make([]Block, n),
	}
	for i := range a.blocks {
		b := &a.blocks[i]
		b.Alloc = int32(a.id)
		b.Index = int32(i)
		b.bytes = uint32(min(size-units.Size(i)*units.BlockSize, units.BlockSize))
	}
	s.nextVA += uint64(units.AlignUp(size, units.BlockSize))
	s.byID = append(s.byID, a)
	s.ordered = append(s.ordered, a)
	return a, nil
}

// Free marks an allocation freed and forgets it. The caller (the driver) is
// responsible for first releasing physical resources.
func (s *Space) Free(a *Alloc) error {
	if a.freed {
		return fmt.Errorf("vaspace: double free of %s", a.name)
	}
	a.freed = true
	s.byID[a.id] = nil
	for i, x := range s.ordered {
		if x == a {
			s.ordered = append(s.ordered[:i], s.ordered[i+1:]...)
			break
		}
	}
	return nil
}

// Lookup finds the allocation containing virtual address va, or nil.
func (s *Space) Lookup(va uint64) *Alloc {
	i := sort.Search(len(s.ordered), func(i int) bool {
		a := s.ordered[i]
		return va < a.base+uint64(units.AlignUp(a.size, units.BlockSize))
	})
	if i < len(s.ordered) {
		a := s.ordered[i]
		if va >= a.base && va < a.base+uint64(a.size) {
			return a
		}
	}
	return nil
}

// ByID returns the live allocation with the given id, or nil.
func (s *Space) ByID(id int) *Alloc {
	if id < 0 || id >= len(s.byID) {
		return nil
	}
	return s.byID[id]
}

// AllocOf returns the live allocation that owns b.
func (s *Space) AllocOf(b *Block) *Alloc { return s.byID[b.Alloc] }

// Live returns all live allocations in allocation order.
func (s *Space) Live() []*Alloc {
	out := make([]*Alloc, len(s.ordered))
	copy(out, s.ordered)
	return out
}
