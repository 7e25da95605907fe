// Package cuda is a CUDA-like runtime over the simulated UVM driver: a
// context with streams, managed (unified) buffers, explicit device buffers
// with memcpy for the No-UVM baseline, prefetch, kernel launch with
// block-granular access traces, events, and the paper's two discard calls.
//
// Programs written against this package look like the pseudo-code in the
// paper's Listings 2–6: allocate managed buffers, optionally prefetch,
// launch kernels, discard dead buffers, synchronize. All timing is virtual;
// kernels may carry a functional Go payload so examples compute real
// results through the simulated memory system.
package cuda

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Location is a prefetch destination.
type Location int

const (
	// ToGPU prefetches toward the device.
	ToGPU Location = iota
	// ToCPU prefetches toward the host.
	ToCPU
)

// Context owns the simulated GPUs, their driver, the host clock, and one
// compute engine per GPU.
type Context struct {
	drv      *core.Driver
	clock    *sim.Clock
	computes []*sim.Engine
	streams  []*Stream
	rng      *sim.RNG

	// orderScratch holds the shuffled block indexes of a Scatter access's
	// current pass, reused across launches so a pass does not allocate
	// (the context, like the driver, is single-threaded per run). It does
	// not survive past the driver call that consumes it.
	orderScratch []int
}

// NewContext builds a runtime context from a driver configuration.
func NewContext(cfg core.Config) (*Context, error) {
	drv, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	computes := make([]*sim.Engine, drv.NumGPUs())
	for i := range computes {
		name := "gpu0-compute"
		if i > 0 {
			name = fmt.Sprintf("gpu%d-compute", i)
		}
		computes[i] = sim.NewEngine(name)
	}
	return &Context{
		drv:      drv,
		clock:    sim.NewClock(),
		computes: computes,
		streams:  make([]*Stream, 0, 4),
		rng:      sim.NewRNG(1),
	}, nil
}

// Driver exposes the underlying UVM driver.
func (c *Context) Driver() *core.Driver { return c.drv }

// Metrics exposes the driver's instrumentation.
func (c *Context) Metrics() *metrics.Collector { return c.drv.Metrics() }

// Clock returns the host clock.
func (c *Context) Clock() *sim.Clock { return c.clock }

// Compute returns the primary GPU's compute engine (for utilization
// reporting).
func (c *Context) Compute() *sim.Engine { return c.computes[0] }

// ComputeAt returns GPU i's compute engine.
func (c *Context) ComputeAt(i int) *sim.Engine { return c.computes[i] }

// NumGPUs returns how many GPUs the context drives.
func (c *Context) NumGPUs() int { return len(c.computes) }

// Stream creates a new CUDA stream. Operations on one stream execute in
// order; different streams overlap, which is how the "-opt" pipelines hide
// transfer latency behind computation.
func (c *Context) Stream(name string) *Stream {
	s := &Stream{ctx: c, name: name}
	c.streams = append(c.streams, s)
	return s
}

// DeviceSynchronize blocks the host until all streams have drained,
// returning the new host time.
func (c *Context) DeviceSynchronize() sim.Time {
	t := c.clock.Now()
	for _, s := range c.streams {
		t = sim.Max(t, s.tail)
	}
	return c.clock.WaitUntil(t)
}

// Elapsed returns the simulation makespan so far: the host clock after a
// DeviceSynchronize-equivalent drain of every stream and engine.
func (c *Context) Elapsed() sim.Time {
	t := c.clock.Now()
	for _, s := range c.streams {
		t = sim.Max(t, s.tail)
	}
	for _, e := range c.computes {
		t = sim.Max(t, e.FreeAt())
	}
	t = sim.Max(t, c.drv.EngineDMA().FreeAt())
	t = sim.Max(t, c.drv.EnginePeer().FreeAt())
	return t
}

// Buffer is a managed (unified-memory) buffer.
type Buffer struct {
	ctx   *Context
	alloc *vaspace.Alloc
}

// MallocManaged allocates unified memory (Listing 2's cudaMallocManaged):
// VA space only; physical pages appear on first touch.
func (c *Context) MallocManaged(name string, size units.Size) (*Buffer, error) {
	c.clock.Advance(c.drv.Costs().MallocManaged.Eval(size))
	a, err := c.drv.AllocManaged(name, size)
	if err != nil {
		return nil, err
	}
	c.drv.AddAPITime("cudaMallocManaged", c.drv.Costs().MallocManaged.Eval(size))
	return &Buffer{ctx: c, alloc: a}, nil
}

// Free releases a managed buffer (cudaFree on UVM memory).
func (b *Buffer) Free() error {
	cost := b.ctx.drv.Costs().Free.Eval(b.alloc.Size())
	b.ctx.clock.Advance(cost)
	b.ctx.drv.AddAPITime("cudaFree", cost)
	return b.ctx.drv.FreeManaged(b.alloc)
}

// Alloc exposes the underlying allocation.
func (b *Buffer) Alloc() *vaspace.Alloc { return b.alloc }

// Name returns the buffer's debug name.
func (b *Buffer) Name() string { return b.alloc.Name() }

// Size returns the buffer's size in bytes.
func (b *Buffer) Size() units.Size { return b.alloc.Size() }

// Data returns the buffer's functional backing bytes (host-side Go memory;
// the simulator models placement and movement, the payload carries values).
func (b *Buffer) Data() []byte { return b.alloc.Data() }

// HostWrite models host code writing [off, off+len): CPU faults populate or
// migrate the covered blocks.
func (b *Buffer) HostWrite(off, length units.Size) error {
	return b.hostAccess(off, length, core.Write)
}

// HostRead models host code reading [off, off+len).
func (b *Buffer) HostRead(off, length units.Size) error {
	return b.hostAccess(off, length, core.Read)
}

func (b *Buffer) hostAccess(off, length units.Size, mode core.AccessMode) error {
	done, err := b.ctx.drv.CPUAccessRange(b.alloc, off, length, mode, b.ctx.clock.Now())
	if err != nil {
		return err
	}
	b.ctx.clock.WaitUntil(done) // host accesses are synchronous
	return nil
}

// DeviceBuffer is a classic cudaMalloc'd device allocation for the No-UVM
// baseline: permanently GPU-resident, moved only by explicit memcpy.
type DeviceBuffer struct {
	ctx    *Context
	chunks []*gpudev.Chunk
	size   units.Size
}

// Malloc allocates a device buffer (cudaMalloc). Fails when it does not
// fit — the Listing 4 limitation.
func (c *Context) Malloc(size units.Size) (*DeviceBuffer, error) {
	cost := c.drv.Costs().Malloc.Eval(size)
	c.clock.Advance(cost)
	c.drv.AddAPITime("cudaMalloc", cost)
	chunks, err := c.drv.MallocDevice(size)
	if err != nil {
		return nil, err
	}
	return &DeviceBuffer{ctx: c, chunks: chunks, size: size}, nil
}

// Free releases the device buffer (cudaFree).
func (db *DeviceBuffer) Free() {
	cost := db.ctx.drv.Costs().Free.Eval(db.size)
	db.ctx.clock.Advance(cost)
	db.ctx.drv.AddAPITime("cudaFree", cost)
	db.ctx.drv.FreeDevice(db.chunks)
	db.chunks = nil
}

// Size returns the device buffer size.
func (db *DeviceBuffer) Size() units.Size { return db.size }

// Event is a CUDA event for cross-stream ordering.
type Event struct {
	t        sim.Time
	recorded bool
}

// NewEvent returns an unrecorded event.
func (c *Context) NewEvent() *Event { return &Event{} }

// Time returns the recorded completion time.
func (e *Event) Time() sim.Time { return e.t }

// Recorded reports whether the event has been recorded on a stream.
func (e *Event) Recorded() bool { return e.recorded }

// Stream is an in-order queue of device operations.
type Stream struct {
	ctx  *Context
	name string
	tail sim.Time
}

// Name returns the stream's name.
func (s *Stream) Name() string { return s.name }

// Tail returns the completion time of the last enqueued operation.
func (s *Stream) Tail() sim.Time { return s.tail }

// ready computes when the next op may start, charging issueCost to the
// host clock.
func (s *Stream) ready(issueCost sim.Time) sim.Time {
	s.ctx.clock.Advance(issueCost)
	return sim.Max(s.tail, s.ctx.clock.Now())
}

// Synchronize blocks the host until the stream drains.
func (s *Stream) Synchronize() sim.Time {
	return s.ctx.clock.WaitUntil(s.tail)
}

// RecordEvent records an event at the stream's current tail.
func (s *Stream) RecordEvent(e *Event) {
	e.t = s.tail
	e.recorded = true
}

// WaitEvent makes subsequent operations on s wait for e.
func (s *Stream) WaitEvent(e *Event) {
	if !e.recorded {
		return
	}
	s.tail = sim.Max(s.tail, e.t)
}

// MemAdvise applies a cudaMemAdvise-style placement hint to
// [off, off+len): preferred location and read-mostly duplication compose
// with prefetch and discard.
func (s *Stream) MemAdvise(b *Buffer, off, length units.Size, adv core.Advice) error {
	start := s.ready(sim.Micros(4))
	s.ctx.drv.AddAPITime("cudaMemAdvise", sim.Micros(4))
	done, err := s.ctx.drv.MemAdvise(b.alloc, off, length, adv, start)
	if err != nil {
		return err
	}
	s.tail = done
	return nil
}

// MemAdviseAll applies advice to the whole buffer.
func (s *Stream) MemAdviseAll(b *Buffer, adv core.Advice) error {
	return s.MemAdvise(b, 0, b.Size(), adv)
}

// MemPrefetchAsync enqueues a cudaMemPrefetchAsync of [off, off+len) toward
// dst. Under UvmDiscardLazy this is also the mandatory dirty-bit-setting
// operation before re-using a discarded range (§5.2).
func (s *Stream) MemPrefetchAsync(b *Buffer, off, length units.Size, dst Location) error {
	costs := s.ctx.drv.Costs()
	start := s.ready(costs.PrefetchIssue)
	s.ctx.drv.AddAPITime("cudaMemPrefetchAsync", costs.PrefetchIssue)
	var done sim.Time
	var err error
	if dst == ToGPU {
		done, err = s.ctx.drv.PrefetchToGPU(b.alloc, off, length, start)
	} else {
		done, err = s.ctx.drv.PrefetchToCPU(b.alloc, off, length, start)
	}
	if err != nil {
		return err
	}
	s.tail = done
	return nil
}

// PrefetchAll prefetches the whole buffer.
func (s *Stream) PrefetchAll(b *Buffer, dst Location) error {
	return s.MemPrefetchAsync(b, 0, b.Size(), dst)
}

// PrefetchAllTo prefetches the whole buffer to a specific GPU (multi-GPU
// systems).
func (s *Stream) PrefetchAllTo(b *Buffer, gpu int) error {
	costs := s.ctx.drv.Costs()
	start := s.ready(costs.PrefetchIssue)
	s.ctx.drv.AddAPITime("cudaMemPrefetchAsync", costs.PrefetchIssue)
	done, err := s.ctx.drv.PrefetchToGPUOn(gpu, b.alloc, 0, b.Size(), start)
	if err != nil {
		return err
	}
	s.tail = done
	return nil
}

// DiscardAsync enqueues an eager UvmDiscard of [off, off+len) (§5.1),
// stream-ordered like a memory operation (§4.2).
func (s *Stream) DiscardAsync(b *Buffer, off, length units.Size) error {
	return s.discardAsync(b, off, length, false)
}

// DiscardLazyAsync enqueues a UvmDiscardLazy (§5.2).
func (s *Stream) DiscardLazyAsync(b *Buffer, off, length units.Size) error {
	return s.discardAsync(b, off, length, true)
}

// DiscardAll discards the whole buffer.
func (s *Stream) DiscardAll(b *Buffer) error { return s.DiscardAsync(b, 0, b.Size()) }

// DiscardAddrAsync discards [va, va+length) given a raw virtual address —
// the shape of the real UvmDiscard call, which "takes arguments defining a
// virtual memory region" (§4). The address must fall inside a live managed
// allocation.
func (s *Stream) DiscardAddrAsync(va uint64, length units.Size) error {
	b, off, err := s.resolveVA(va, length)
	if err != nil {
		return err
	}
	return s.DiscardAsync(b, off, length)
}

// DiscardLazyAddrAsync is the lazy flavor of DiscardAddrAsync.
func (s *Stream) DiscardLazyAddrAsync(va uint64, length units.Size) error {
	b, off, err := s.resolveVA(va, length)
	if err != nil {
		return err
	}
	return s.DiscardLazyAsync(b, off, length)
}

// resolveVA maps a raw address range onto (buffer, offset).
func (s *Stream) resolveVA(va uint64, length units.Size) (*Buffer, units.Size, error) {
	a := s.ctx.drv.Space().Lookup(va)
	if a == nil {
		return nil, 0, fmt.Errorf("cuda: address %#x is not managed memory", va)
	}
	off := units.Size(va - a.Base())
	if off+length > a.Size() {
		return nil, 0, fmt.Errorf("cuda: range [%#x,+%d) crosses the end of %s",
			va, length, a.Name())
	}
	return &Buffer{ctx: s.ctx, alloc: a}, off, nil
}

// DiscardLazyAll lazily discards the whole buffer.
func (s *Stream) DiscardLazyAll(b *Buffer) error { return s.DiscardLazyAsync(b, 0, b.Size()) }

func (s *Stream) discardAsync(b *Buffer, off, length units.Size, lazy bool) error {
	costs := s.ctx.drv.Costs()
	var apiCost sim.Time
	var api string
	if lazy {
		apiCost, api = costs.DiscardLazy.Eval(length), "UvmDiscardLazy"
	} else {
		apiCost, api = costs.Discard.Eval(length), "UvmDiscard"
	}
	// The call cost is paid on the host (it waits for GPU acknowledgement
	// of PTE/TLB work for the eager flavor — that is what Table 2
	// measures); the state transition applies at stream order.
	start := s.ready(apiCost)
	s.ctx.drv.AddAPITime(api, apiCost)
	var done sim.Time
	var err error
	if lazy {
		done, err = s.ctx.drv.DiscardLazy(b.alloc, off, length, start)
	} else {
		done, err = s.ctx.drv.Discard(b.alloc, off, length, start)
	}
	if err != nil {
		return err
	}
	s.tail = done
	return nil
}

// MemcpyHostToDevice enqueues an explicit H2D copy (No-UVM baseline).
func (s *Stream) MemcpyHostToDevice(n units.Size) {
	start := s.ready(sim.Micros(5))
	s.tail = s.ctx.drv.ExplicitCopy(metrics.H2D, n, start)
}

// MemcpyDeviceToHost enqueues an explicit D2H copy.
func (s *Stream) MemcpyDeviceToHost(n units.Size) {
	start := s.ready(sim.Micros(5))
	s.tail = s.ctx.drv.ExplicitCopy(metrics.D2H, n, start)
}

// String implements fmt.Stringer.
func (s *Stream) String() string {
	return fmt.Sprintf("stream(%s, tail=%v)", s.name, s.tail)
}
