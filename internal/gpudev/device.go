package gpudev

import (
	"fmt"

	"uvmdiscard/internal/units"
)

// Device is the physical-memory side of one GPU: a fixed pool of 2 MiB
// chunks distributed across the driver's page queues. The device is purely
// mechanical — *which* chunk moves *where* and *when* is decided by the UVM
// driver in internal/core; the device enforces the queue invariants.
type Device struct {
	profile   Profile
	chunks    []Chunk
	free      chunkList
	unused    chunkList
	used      chunkList // head = LRU, tail = MRU
	discarded chunkList
	reserved  chunkList
	poisoned  chunkList
}

// NewDevice builds a device from a profile, with reservedBytes of capacity
// pinned away to model an idle co-resident program (the paper's mechanism
// for forcing oversubscription ratios, §7.1). reservedBytes is rounded up to
// whole chunks and must leave at least one chunk available.
func NewDevice(profile Profile, reservedBytes units.Size) (*Device, error) {
	if err := profile.Validate(); err != nil {
		return nil, err
	}
	total := int(profile.MemoryBytes / units.BlockSize)
	res := units.BlocksIn(reservedBytes)
	if res >= total {
		return nil, fmt.Errorf("gpudev: reservation %s leaves no usable memory on %s (%d chunks)",
			units.Format(reservedBytes), profile.Name, total)
	}
	d := &Device{profile: profile, chunks: make([]Chunk, total)}
	for _, l := range []*chunkList{&d.free, &d.unused, &d.used, &d.discarded, &d.reserved, &d.poisoned} {
		l.init()
	}
	for i := range d.chunks {
		d.chunks[i].id = int32(i)
	}
	d.linkRange(&d.reserved, 0, res, QueueReserved)
	d.linkRange(&d.free, res, total, QueueFree)
	return d, nil
}

// linkRange threads chunks [lo, hi) onto l in index order with direct
// prev/next stores — the same list shape hi-lo pushTail calls would build.
// Experiment sweeps construct thousands of devices with tens of thousands of
// chunks each, so initialization is linked arithmetically instead of through
// the per-chunk push path.
func (d *Device) linkRange(l *chunkList, lo, hi int, k QueueKind) {
	if lo >= hi {
		return
	}
	for i := lo; i < hi; i++ {
		d.chunks[i].queue = k
		d.chunks[i].prev = int32(i - 1)
		d.chunks[i].next = int32(i + 1)
	}
	d.chunks[lo].prev = noChunk
	d.chunks[hi-1].next = noChunk
	l.head, l.tail = int32(lo), int32(hi-1)
	l.size = hi - lo
}

// Profile returns the device's hardware profile.
func (d *Device) Profile() *Profile { return &d.profile }

// TotalChunks returns the number of chunks the device manages, including
// reserved ones.
func (d *Device) TotalChunks() int { return len(d.chunks) }

// UsableChunks returns the chunks available to the application (total minus
// reserved and minus any chunks retired to the poisoned queue).
func (d *Device) UsableChunks() int {
	return len(d.chunks) - d.reserved.size - d.poisoned.size
}

// UsableBytes returns the application-visible capacity in bytes.
func (d *Device) UsableBytes() units.Size {
	return units.Size(d.UsableChunks()) * units.BlockSize
}

// QueueLen returns the current length of a queue.
func (d *Device) QueueLen(k QueueKind) int {
	if l := d.list(k); l != nil {
		return l.size
	}
	return 0
}

// list returns the list that holds queue k, or nil for QueueNone.
func (d *Device) list(k QueueKind) *chunkList {
	switch k {
	case QueueFree:
		return &d.free
	case QueueUnused:
		return &d.unused
	case QueueUsed:
		return &d.used
	case QueueDiscarded:
		return &d.discarded
	case QueueReserved:
		return &d.reserved
	case QueuePoisoned:
		return &d.poisoned
	default:
		return nil
	}
}

// PopFree removes and returns a chunk from the free queue, or nil if empty.
func (d *Device) PopFree() *Chunk { return d.popFrom(&d.free) }

// PopUnused removes and returns the oldest chunk on the unused FIFO, or nil.
func (d *Device) PopUnused() *Chunk { return d.popFrom(&d.unused) }

// PopDiscarded removes and returns the oldest chunk on the discarded FIFO,
// or nil. FIFO order maximizes each discarded chunk's residence time so
// re-accesses can recover it cheaply (§5.5).
func (d *Device) PopDiscarded() *Chunk { return d.popFrom(&d.discarded) }

// LRUVictim returns (without removing) the least-recently-used chunk on the
// used queue, or nil if the queue is empty.
func (d *Device) LRUVictim() *Chunk {
	if d.used.head == noChunk {
		return nil
	}
	return &d.chunks[d.used.head]
}

func (d *Device) popFrom(l *chunkList) *Chunk {
	c := l.popHead(d.chunks)
	if c != nil {
		c.queue = QueueNone
	}
	return c
}

// Detach removes a chunk from whatever queue it is on, leaving it owned by
// the caller (queue = none). Used when the driver reclaims a specific chunk
// (e.g. the LRU victim, or recovery of a discarded chunk on re-access).
func (d *Device) Detach(c *Chunk) {
	switch c.queue {
	case QueueFree:
		d.free.remove(d.chunks, c)
	case QueueUnused:
		d.unused.remove(d.chunks, c)
	case QueueUsed:
		d.used.remove(d.chunks, c)
	case QueueDiscarded:
		d.discarded.remove(d.chunks, c)
	case QueueReserved:
		d.reserved.remove(d.chunks, c)
	case QueuePoisoned:
		// Poison retires a chunk permanently: ECC page retirement has no
		// un-retire, so nothing may pull it back into service.
		panic(fmt.Sprintf("gpudev: detaching poisoned chunk %d: retired chunks never leave quarantine", c.id))
	case QueueNone:
		panic("gpudev: detaching chunk that is already detached")
	}
	c.queue = QueueNone
}

// PushUsed places a detached chunk at the MRU end of the used queue.
func (d *Device) PushUsed(c *Chunk) { d.pushTo(&d.used, c, QueueUsed) }

// PushUnused places a detached chunk on the unused FIFO.
func (d *Device) PushUnused(c *Chunk) { d.pushTo(&d.unused, c, QueueUnused) }

// PushDiscarded places a detached chunk on the discarded FIFO.
func (d *Device) PushDiscarded(c *Chunk) { d.pushTo(&d.discarded, c, QueueDiscarded) }

// PushPoisoned quarantines a detached chunk hit by an ECC-style
// uncorrectable error: the chunk is retired from service with all per-use
// state cleared, reducing the device's usable capacity for the rest of the
// run. The eviction process never consults this queue.
func (d *Device) PushPoisoned(c *Chunk) {
	c.Owner = 0
	c.PreparedPages = 0
	c.NeedsUnmapOnReclaim = false
	d.pushTo(&d.poisoned, c, QueuePoisoned)
}

// PushFree returns a detached chunk to the free queue, clearing per-use
// state: a freed chunk has no owner, no preparedness, no pending unmap.
func (d *Device) PushFree(c *Chunk) {
	c.Owner = 0
	c.PreparedPages = 0
	c.NeedsUnmapOnReclaim = false
	d.pushTo(&d.free, c, QueueFree)
}

func (d *Device) pushTo(l *chunkList, c *Chunk, k QueueKind) {
	if c.queue != QueueNone {
		panic(fmt.Sprintf("gpudev: pushing chunk %d to %v while still on %v", c.id, k, c.queue))
	}
	c.queue = k
	l.pushTail(d.chunks, c)
}

// Touch records a use of a chunk on the used queue, moving it to the MRU
// end. Touching a chunk on any other queue is a driver bug.
func (d *Device) Touch(c *Chunk) {
	if c.queue != QueueUsed {
		panic(fmt.Sprintf("gpudev: touch of chunk %d on queue %v", c.id, c.queue))
	}
	if d.used.tail == c.id {
		return // already MRU: remove+push would be the identity
	}
	d.used.remove(d.chunks, c)
	c.queue = QueueNone
	d.PushUsed(c)
}

// MoveStretch moves the stretch of n chunks that runs from first to last in
// list order (LRU to MRU on the used queue) to the tail of queue to, in the
// same order: the queues a Detach and a push to queue to of each chunk of
// the stretch in turn would leave, at O(1) link cost. Within the used queue
// that is a Touch of each chunk. Both queues must be the used or the
// discarded queue, whose pushes keep a chunk's per-use fields.
//
// Moving to the other queue also relabels the n chunks. MoveStretch calls
// chunk(i) once for each i from 0 to n-1, in order, for the stretch's i'th
// chunk: the caller reads the chunks from its own index of the stretch,
// such as an allocation's blocks, and may make its own change to each in
// the same call, so one pass in stretch order does both. Walking the queue
// links from first instead would be a chain of dependent loads. chunk is
// not called within one queue and may then be nil. The caller guarantees
// that first..last is a contiguous stretch of n chunks; the device cannot
// check that without walking it.
func (d *Device) MoveStretch(first, last *Chunk, n int, to QueueKind, chunk func(i int) *Chunk) {
	from := first.queue
	if last.queue != from || !stretchQueue(from) || !stretchQueue(to) {
		panic(fmt.Sprintf("gpudev: moving stretch %d..%d on queues %v..%v to %v", first.id, last.id, from, last.queue, to))
	}
	src, dst := d.list(from), d.list(to)
	if src == dst && src.tail == last.id {
		return // already at the tail: relinking would be the identity
	}
	if first.prev != noChunk {
		d.chunks[first.prev].next = last.next
	} else {
		src.head = last.next
	}
	if last.next != noChunk {
		d.chunks[last.next].prev = first.prev
	} else {
		src.tail = first.prev
	}
	// Unlinking never empties dst when it is src: last is not its tail, so
	// the tail lies beyond the stretch.
	first.prev, last.next = dst.tail, noChunk
	if dst.tail != noChunk {
		d.chunks[dst.tail].next = first.id
	} else {
		dst.head = first.id
	}
	dst.tail = last.id
	if src == dst {
		return
	}
	for i := 0; i < n; i++ {
		c := chunk(i)
		if c.queue != from {
			panic(fmt.Sprintf("gpudev: stretch chunk %d of %d (chunk %d) is on %v, not %v", i, n, c.id, c.queue, from))
		}
		c.queue = to
	}
	src.size -= n
	dst.size += n
}

// stretchQueue reports whether MoveStretch may move a stretch from or to
// queue k.
func stretchQueue(k QueueKind) bool { return k == QueueUsed || k == QueueDiscarded }

// Next returns the chunk after c on c's queue (toward the MRU end of the
// used queue), or nil when c is the last one. It only reads the links; the
// core sanitizer uses it to check that a stretch is contiguous.
func (d *Device) Next(c *Chunk) *Chunk {
	if c.next == noChunk {
		return nil
	}
	return &d.chunks[c.next]
}

// EachUsed visits used-queue chunks from LRU to MRU; fn returning false
// stops the walk.
func (d *Device) EachUsed(fn func(*Chunk) bool) { d.used.forEach(d.chunks, fn) }

// EachChunk visits every chunk the device manages — whatever queue it is
// on, including detached (queue = none) chunks — in chunk-id order; fn
// returning false stops the walk. The core sanitizer uses this for its
// chunk-in-exactly-one-queue and byte-conservation sweeps.
func (d *Device) EachChunk(fn func(*Chunk) bool) {
	for i := range d.chunks {
		if !fn(&d.chunks[i]) {
			return
		}
	}
}

// Chunk returns the chunk with the given id, which must be in range: the
// driver's lookup of a block's chunk.
func (d *Device) Chunk(id int) *Chunk { return &d.chunks[id] }

// ChunkByID returns the chunk with the given id, or an error when the id is
// out of range. The core sanitizer looks up a block's chunk this way, so a
// corrupt id is reported, not an out-of-bounds panic.
func (d *Device) ChunkByID(id int32) (*Chunk, error) {
	if id < 0 || int(id) >= len(d.chunks) {
		return nil, fmt.Errorf("gpudev: chunk id %d outside [0,%d)", id, len(d.chunks))
	}
	return &d.chunks[id], nil
}

// AppendQueueIDs appends the ids of the chunks on queue k, in list order
// (head first), to dst and returns it. FIFO position and LRU position are
// part of the simulation state, so tests compare queues this way.
func (d *Device) AppendQueueIDs(dst []int32, k QueueKind) []int32 {
	l := d.list(k)
	if l == nil {
		return dst
	}
	for i := l.head; i != noChunk; i = d.chunks[i].next {
		dst = append(dst, i)
	}
	return dst
}

// CheckInvariants verifies that every chunk is on exactly the queue its
// state claims and that queue sizes add up. It is called from tests and is
// cheap enough to sprinkle into long simulations when debugging.
func (d *Device) CheckInvariants() error {
	sum := d.free.size + d.unused.size + d.used.size + d.discarded.size +
		d.reserved.size + d.poisoned.size
	detached := 0
	for i := range d.chunks {
		if d.chunks[i].queue == QueueNone {
			detached++
		}
	}
	if sum+detached != len(d.chunks) {
		return fmt.Errorf("gpudev: queue sizes %d + detached %d != total %d", sum, detached, len(d.chunks))
	}
	for _, q := range []struct {
		l *chunkList
		k QueueKind
	}{
		{&d.free, QueueFree}, {&d.unused, QueueUnused}, {&d.used, QueueUsed},
		{&d.discarded, QueueDiscarded}, {&d.reserved, QueueReserved},
		{&d.poisoned, QueuePoisoned},
	} {
		n := 0
		for i := q.l.head; i != noChunk; i = d.chunks[i].next {
			c := &d.chunks[i]
			if c.queue != q.k {
				return fmt.Errorf("gpudev: chunk %d on %v list claims queue %v", c.id, q.k, c.queue)
			}
			n++
		}
		if n != q.l.size {
			return fmt.Errorf("gpudev: %v list size %d but %d reachable", q.k, q.l.size, n)
		}
	}
	return nil
}
