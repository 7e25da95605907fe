package gpudev

import (
	"fmt"

	"uvmdiscard/internal/units"
)

// QueueKind identifies which of the driver's physical page queues a chunk is
// on (§5.5).
type QueueKind uint8

const (
	// QueueNone means the chunk is not tracked by the device (never the
	// case for chunks owned by a Device).
	QueueNone QueueKind = iota
	// QueueFree holds chunks readily available for allocation.
	QueueFree
	// QueueUnused is a FIFO of leftover chunks from the eviction process;
	// they hold no useful data and can be reclaimed without a transfer.
	QueueUnused
	// QueueUsed is the pseudo-LRU queue of chunks in active use. Eviction
	// from here swaps the contents out to the CPU (a D2H transfer).
	QueueUsed
	// QueueDiscarded is the FIFO added by the paper: chunks whose contents
	// were discarded. Reclaimable without a transfer; FIFO order maximizes
	// the window for cheap recovery on re-access (§5.5).
	QueueDiscarded
	// QueueReserved holds chunks pinned by the oversubscription knob
	// (modeling the paper's idle GPU-memory-occupying program).
	QueueReserved
	// QueuePoisoned quarantines chunks hit by an ECC-style uncorrectable
	// error (fault injection): they are retired from service, excluded
	// from the eviction order, and never return to the free queue. The
	// sanitizer's conservation sweep still counts them against capacity.
	QueuePoisoned
)

// String returns a short queue name.
func (k QueueKind) String() string {
	switch k {
	case QueueNone:
		return "none"
	case QueueFree:
		return "free"
	case QueueUnused:
		return "unused"
	case QueueUsed:
		return "used"
	case QueueDiscarded:
		return "discarded"
	case QueueReserved:
		return "reserved"
	case QueuePoisoned:
		return "poisoned"
	default:
		return fmt.Sprintf("QueueKind(%d)", int(k))
	}
}

// Chunk is one 2 MiB GPU physical page. Chunks are owned by a Device and
// live on exactly one queue at all times.
//
// A chunk holds no pointer. Queue links are int32 indices into the owning
// Device's chunk array, and the owner is an integer handle: the chunk pool
// is a single fixed-size slice, so an index identifies a chunk as well as a
// pointer does. Moving a chunk between queues or handing it to a new block
// then writes only plain integers, which keeps the GC's write barrier off
// the driver's hottest path, and the GC never scans a device's chunks.
type Chunk struct {
	// Owner is an opaque handle the driver sets to name the virtual block
	// currently mapped to this chunk; 0 means unowned. The device never
	// interprets it; it exists so eviction can find the victim's virtual
	// state without an O(n) search.
	Owner uint64

	id   int32
	prev int32 // index of previous chunk on the queue, or noChunk
	next int32 // index of next chunk on the queue, or noChunk

	// PreparedPages counts how many of the chunk's 512 4 KiB pages have
	// been zeroed or migrated into since allocation (§5.7). A chunk is
	// "fully prepared" when PreparedPages == FullyPrepared.
	PreparedPages uint16

	queue QueueKind

	// NeedsUnmapOnReclaim marks a lazily-discarded chunk whose GPU
	// mappings still exist; reclaiming it must pay the unmap cost that
	// UvmDiscard would have paid eagerly (§5.6).
	NeedsUnmapOnReclaim bool

	// DeviceBuffer marks a chunk held by a classic (non-UVM) cudaMalloc
	// device buffer: detached from every queue until cudaFree returns it.
	// The driver sets and clears it (core MallocDevice/FreeDevice); it
	// replaces the old side-table of device-buffer chunks so membership
	// tests are a field load instead of a map probe.
	DeviceBuffer bool
}

// FullyPrepared is the PreparedPages of a chunk whose every 4 KiB page has
// been zeroed or migrated into.
const FullyPrepared = uint16(units.PagesPerBlock)

// noChunk is the nil value of a chunk-index link.
const noChunk int32 = -1

// ID returns the chunk's index within its device.
func (c *Chunk) ID() int { return int(c.id) }

// Queue returns the queue the chunk currently occupies.
func (c *Chunk) Queue() QueueKind { return c.queue }

// chunkList is an intrusive doubly-linked list over a device's chunk
// array, linked by indices. The head is the next element to pop; pushes go
// to the tail. For the used queue this makes the head the LRU side and the
// tail the MRU side. Every operation takes the owning device's chunk slice
// to resolve links.
type chunkList struct {
	head, tail int32
	size       int
}

func (l *chunkList) init() {
	l.head, l.tail = noChunk, noChunk
}

func (l *chunkList) pushTail(chunks []Chunk, c *Chunk) {
	c.prev, c.next = l.tail, noChunk
	if l.tail != noChunk {
		chunks[l.tail].next = c.id
	} else {
		l.head = c.id
	}
	l.tail = c.id
	l.size++
}

func (l *chunkList) remove(chunks []Chunk, c *Chunk) {
	if c.prev != noChunk {
		chunks[c.prev].next = c.next
	} else {
		l.head = c.next
	}
	if c.next != noChunk {
		chunks[c.next].prev = c.prev
	} else {
		l.tail = c.prev
	}
	c.prev, c.next = noChunk, noChunk
	l.size--
}

func (l *chunkList) popHead(chunks []Chunk) *Chunk {
	if l.head == noChunk {
		return nil
	}
	c := &chunks[l.head]
	l.remove(chunks, c)
	return c
}

// forEach visits chunks from head (next-to-pop / LRU) to tail.
func (l *chunkList) forEach(chunks []Chunk, fn func(*Chunk) bool) {
	for i := l.head; i != noChunk; {
		c := &chunks[i]
		next := c.next // fn may move c to another list
		if !fn(c) {
			return
		}
		i = next
	}
}
