package core

import (
	"fmt"

	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/hostmem"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/runctl"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// Config assembles a driver instance.
type Config struct {
	// GPU is the hardware profile of the primary GPU (index 0).
	GPU gpudev.Profile
	// PeerGPUs adds further GPUs (indices 1..n), connected to the primary
	// through a 600 GB/s NVSwitch-class fabric (the figure the paper quotes
	// for A100 systems): the multi-GPU topology §2.3 and §5.1 describe.
	PeerGPUs []gpudev.Profile
	// ReservedBytes of GPU memory are pinned away to force an
	// oversubscription ratio, modeling the paper's idle co-resident
	// program (§7.1). Applies to the primary GPU.
	ReservedBytes units.Size
	// Link is the CPU-GPU interconnect; defaults to PCIe-4 if nil.
	Link *pcie.Link
	// Host models host DRAM; defaults to the paper's 64 GB host if nil.
	Host *hostmem.Host
	// Params are driver policy knobs; nil means DefaultParams.
	Params *Params
	// Metrics receives instrumentation; nil allocates a fresh collector.
	Metrics *metrics.Collector
	// Trace, when non-nil, records driver events for RMT analysis.
	Trace *trace.Recorder
	// Faults, when non-nil and enabled, attaches a fault-injection
	// schedule (internal/faultinject). New builds a fresh Injector from
	// it, so a Config (and its schedule) may be shared across runs while
	// injector state never is.
	Faults *faultinject.Config
	// Control, when non-nil, attaches a run control (internal/runctl):
	// the driver loop polls it at operation boundaries and aborts the run
	// with a structured *runctl.Interrupt once the run's context is
	// canceled or a wall-clock / sim-time budget is exhausted. Unlike
	// Faults, a Control is stateful and single-threaded: it must be fresh
	// per run and never shared between concurrent runs.
	Control *runctl.Control
}

// Driver is the UVM driver model for one or more GPUs. It owns each
// device's physical-chunk queues, the unified VA space, and the DMA
// engines.
type Driver struct {
	devs  []*gpudev.Device
	host  *hostmem.Host
	link  *pcie.Link
	space *vaspace.Space
	m     *metrics.Collector
	// t holds the run's counts not yet folded into m: the per-block paths
	// add to it without an atomic read-modify-write, and the driver folds
	// it into m when it republishes the residency gauges, before it aborts
	// the run, and whenever m is read through it (Metrics,
	// PublishResidency). A Driver is single-threaded per run, so no lock.
	t   metrics.Tally
	tr  *trace.Recorder
	p   Params
	fi  *faultinject.Injector // nil when running fault-free
	ctl *runctl.Control       // nil when the run is unbounded

	// dma is the migration path between host and device. Although PCIe is
	// full duplex and the GPU has per-direction copy engines, the paper's
	// platform bottlenecks both directions in host DRAM ("the CPU DRAM is
	// DDR4 3200, so PCIe-4 throughput is bottlenecked at 25 GB/s", §7.1),
	// so H2D and D2H share one engine. Driver-side bookkeeping (fault
	// service, PTE work, zero-fills) is charged inline on the issuing
	// operation's timeline: the real driver parallelizes that work across
	// VA ranges, so a global serial resource would over-serialize.
	dma *sim.Engine
	// peer is the GPU-to-GPU fabric: peer migrations do not cross host
	// DRAM, so they get their own engine.
	peer *sim.Engine

	deviceAllocBytes units.Size // non-UVM cudaMalloc'd bytes (chunks held)
	// deviceChunkCount tracks how many chunks those bytes pin. Membership
	// itself lives on the chunks (gpudev.Chunk.DeviceBuffer), so hot-path
	// ownership tests are a field load; the count is what the sanitizer's
	// conservation check compares against detached chunks.
	deviceChunkCount int

	// opCount numbers the public driver operations for the sanitizer's
	// sampling stride (sanitizer.go). A Driver is single-threaded per
	// run (see internal/experiments isolation rules), so no lock.
	opCount uint64
	// pubTick counts full control polls for the residency-gauge publishing
	// stride (see poll / PublishResidency). Same single-threaded rule.
	pubTick uint64
	// blockPolls counts down the block checkpoints left before the next
	// full poll of ctl, and simLimit caches ctl's sim budget
	// (runctl.Control.SimLimit), so a block checkpoint costs one decrement
	// and one compare (see blockCheckpoint). Same single-threaded rule.
	blockPolls int
	simLimit   sim.Time

	// forming is the allocation whose resident run the current
	// ensureGPUBlocks pass may form, or nil; clearRun resets it when the
	// pass evicts one of that allocation's chunks (run.go). Same
	// single-threaded rule.
	forming *vaspace.Alloc
	// runAccesses, runDiscards and runRecoveries count the accesses,
	// discards and prefetch recoveries served through runs, and fillPasses
	// the ensureGPUBlocks passes fillBlocks served, so the randomized tests
	// can show they take those paths. Same rule.
	runAccesses, runDiscards, runRecoveries, fillPasses uint64
	// perBlock keeps every access, discard and prefetch on the per-block
	// loops, and every fill pass on the generic one (visitBlocks), so that
	// tests can hold the run paths and the fill loop to them. Only tests
	// set it.
	perBlock bool

	// fullXfer is the link time of one full block's migration, which
	// migrationCost returns for every full block an eviction moves.
	fullXfer sim.Time
}

// Interconnects are immutable after construction (pcie.Link has no
// setters), so every driver shares one instance instead of rebuilding it
// per run.
var (
	// peerLink is the GPU-to-GPU fabric, NVSwitch class: "the GPU-to-GPU
	// remote access bandwidth is limited to 600 GB/s" (§2.3).
	peerLink = pcie.NewLink(pcie.GenNVLink, 600e9, sim.Micros(4))
	// sharedDefaultLink serves drivers built without Config.Link.
	sharedDefaultLink = pcie.Preset(pcie.Gen4)
)

// forceCheckInvariantsEvery is the sanitizer stride New gives every driver
// whose Params leave CheckInvariantsEvery at 0 (see
// EnableInvariantChecksForTests); 0 forces nothing.
var forceCheckInvariantsEvery int

// EnableInvariantChecksForTests turns the runtime sanitizer on for every
// driver subsequently built by New whose Params leave CheckInvariantsEvery
// at 0, checking after every stride'th operation; an explicit stride in
// Params is kept. It exists for TestMain functions — the core and
// experiments test binaries call it so every driver constructed anywhere
// in a test run is checked — and must only be called before tests start.
func EnableInvariantChecksForTests(stride int) {
	forceCheckInvariantsEvery = stride
}

// New builds a driver.
func New(cfg Config) (*Driver, error) {
	p := DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	if p.CheckInvariantsEvery == 0 {
		p.CheckInvariantsEvery = forceCheckInvariantsEvery
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	devs := []*gpudev.Device{}
	dev, err := gpudev.NewDevice(cfg.GPU, cfg.ReservedBytes)
	if err != nil {
		return nil, err
	}
	devs = append(devs, dev)
	for i, prof := range cfg.PeerGPUs {
		pd, err := gpudev.NewDevice(prof, 0)
		if err != nil {
			return nil, fmt.Errorf("core: peer GPU %d: %w", i+1, err)
		}
		devs = append(devs, pd)
	}
	link := cfg.Link
	if link == nil {
		link = sharedDefaultLink
	}
	host := cfg.Host
	if host == nil {
		host = hostmem.Default()
	}
	m := cfg.Metrics
	if m == nil {
		m = metrics.New()
	}
	var fi *faultinject.Injector
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		fi, err = faultinject.New(*cfg.Faults)
		if err != nil {
			return nil, err
		}
	}
	return &Driver{
		devs:     devs,
		host:     host,
		link:     link,
		space:    vaspace.NewSpace(),
		m:        m,
		tr:       cfg.Trace,
		p:        p,
		fi:       fi,
		ctl:      cfg.Control,
		simLimit: cfg.Control.SimLimit(),
		dma:      sim.NewEngine("dma"),
		peer:     sim.NewEngine("peer-fabric"),
		fullXfer: link.TransferTime(uint64(units.BlockSize)),
	}, nil
}

// Device returns the primary GPU device model.
func (d *Driver) Device() *gpudev.Device { return d.devs[0] }

// DeviceAt returns the i'th GPU device model.
func (d *Driver) DeviceAt(i int) *gpudev.Device { return d.devs[i] }

// NumGPUs returns how many GPUs the driver manages.
func (d *Driver) NumGPUs() int { return len(d.devs) }

// PeerLink returns the GPU-to-GPU fabric model.
func (d *Driver) PeerLink() *pcie.Link { return peerLink }

// EnginePeer exposes the peer fabric engine.
func (d *Driver) EnginePeer() *sim.Engine { return d.peer }

// Host returns the host memory model.
func (d *Driver) Host() *hostmem.Host { return d.host }

// Link returns the interconnect model.
func (d *Driver) Link() *pcie.Link { return d.link }

// Space returns the unified VA space.
func (d *Driver) Space() *vaspace.Space { return d.space }

// Metrics folds the driver's pending counts into its collector and returns
// the collector, so what the caller reads next is exact.
func (d *Driver) Metrics() *metrics.Collector {
	d.m.Fold(&d.t)
	return d.m
}

// AddAPITime attributes host-side time to a named API on the driver's
// collector. Every CUDA call records its API time, so this does not fold
// the pending counts as Metrics does.
func (d *Driver) AddAPITime(api string, t sim.Time) { d.m.AddAPITime(api, t) }

// AddPeer counts a GPU-to-GPU transfer of n bytes that a caller made over
// the peer fabric itself, such as a data-parallel all-reduce, with the
// driver's own counts.
func (d *Driver) AddPeer(n uint64) { d.t.AddPeer(n) }

// Trace returns the trace recorder (may be nil).
func (d *Driver) Trace() *trace.Recorder { return d.tr }

// Costs returns the API cost models.
func (d *Driver) Costs() *APICosts { return apiCosts }

// Params returns the active policy parameters.
func (d *Driver) Params() Params { return d.p }

// Control returns the run control (may be nil).
func (d *Driver) Control() *runctl.Control { return d.ctl }

// checkpoint polls the run control at a public driver operation's entry.
// All checkpoint sites, these and the per-block ones (blockCheckpoint), sit
// at points where the memory-management state is self-consistent (between
// per-block transitions, before an eviction pops a queue), so an aborted
// run always passes the runtime sanitizer — the invariant the service's
// deadline tests pin down. The abort is a typed panic that runctl.Recover
// converts back into an error at the workload boundary; it never escapes to
// callers as a panic. Without a control this inlines to one nil compare.
func (d *Driver) checkpoint(op string, now sim.Time) {
	if d.ctl != nil {
		d.poll(op, now)
	}
}

// blockCheckpoint is the checkpoint of the per-block loops (fault-in,
// eviction, host access, prefetch to host), which run millions of times
// per experiment. It compares now with the cached sim budget on every
// block, so a budget trips on the same block as if every block polled, and
// runs the full poll only every blockPollStride-th block: a cancel is seen
// within that many block checkpoints. The countdown starts at zero, so the
// first one polls.
func (d *Driver) blockCheckpoint(op string, now sim.Time) {
	if d.ctl != nil {
		if d.blockPolls--; d.blockPolls <= 0 || now > d.simLimit {
			d.poll(op, now)
		}
	}
}

// poll runs the full run-control check at op, aborting the run if it
// trips, and restarts the block countdown.
func (d *Driver) poll(op string, now sim.Time) {
	d.blockPolls = blockPollStride
	if i := d.ctl.Check(op, now); i != nil {
		// The collector of an aborted run is read as it stands: fold the
		// pending counts first.
		d.m.Fold(&d.t)
		runctl.Abort(i)
	}
	// Controlled runs are service runs: republish the residency gauges, and
	// fold the pending counts, on a stride so a /metrics scrape of a live
	// run sees fresh per-device occupancy and counters without a
	// collector-mutex acquisition or atomic add per driver operation.
	d.pubTick++
	if d.pubTick&(residencyPublishStride-1) == 0 {
		d.PublishResidency()
	}
}

// blockPollStride is how many block checkpoints elapse between full polls
// of the run control.
const blockPollStride = 32

// residencyPublishStride is how many full polls elapse between residency
// gauge refreshes; a power of two so the stride test is a mask.
const residencyPublishStride = 64

// PublishResidency folds the driver's pending counts into its collector and
// pushes every device's current queue occupancy into it as per-device
// gauges (metrics.DeviceResidency).
// Chunks are uniform (units.BlockSize), so occupancy is queue length times
// chunk size. The driver calls this on a stride from checkpoint during
// controlled (service) runs, and workloads.Collect calls it once at the end
// of every run so finished results always carry final residency. It reads
// only queue lengths and never mutates driver state, so publishing has no
// effect on simulated time or determinism.
func (d *Driver) PublishResidency() {
	d.m.Fold(&d.t)
	for i, dev := range d.devs {
		bs := uint64(units.BlockSize)
		d.m.SetDeviceResidency(i, metrics.DeviceResidency{
			CapacityBytes:  bs * uint64(dev.TotalChunks()),
			FreeBytes:      bs * uint64(dev.QueueLen(gpudev.QueueFree)),
			UnusedBytes:    bs * uint64(dev.QueueLen(gpudev.QueueUnused)),
			UsedBytes:      bs * uint64(dev.QueueLen(gpudev.QueueUsed)),
			DiscardedBytes: bs * uint64(dev.QueueLen(gpudev.QueueDiscarded)),
			ReservedBytes:  bs * uint64(dev.QueueLen(gpudev.QueueReserved)),
			PoisonedBytes:  bs * uint64(dev.QueueLen(gpudev.QueuePoisoned)),
		})
	}
}

// EngineDMA exposes the shared migration engine (for utilization
// reporting).
func (d *Driver) EngineDMA() *sim.Engine { return d.dma }

// AllocManaged reserves a unified (cudaMallocManaged) allocation. No
// physical memory is committed; first touch populates it (§2.2).
func (d *Driver) AllocManaged(name string, size units.Size) (*vaspace.Alloc, error) {
	return d.space.Alloc(name, size)
}

// FreeManaged releases a managed allocation: GPU-resident chunks go to the
// unused queue (dead data, reclaimable without transfer), host pages are
// released, VA space is forgotten.
func (d *Driver) FreeManaged(a *vaspace.Alloc) error {
	if a.Freed() {
		return fmt.Errorf("core: free of already-freed %s", a.Name())
	}
	d.clearRun(a)
	for i := 0; i < a.NumBlocks(); i++ {
		b := a.Block(i)
		if c := d.chunkOf(b); c != nil {
			dev := d.devs[b.GPUIndex]
			dev.Detach(c)
			// Freeing tears down the VA range and its mappings with it,
			// so a lazily discarded chunk's deferred unmap (§5.6) no
			// longer applies at reclaim time; leaving the marker set
			// would charge a phantom unmap when the unused chunk is
			// reused.
			c.NeedsUnmapOnReclaim = false
			c.Owner = 0
			dev.PushUnused(c)
			b.ClearChunk()
		}
		if b.CPUHasPages {
			if b.CPUPinned {
				d.host.Unpin(b.Bytes())
			}
			d.host.Release(b.Bytes())
		}
		b.Residency = vaspace.Untouched
		b.CPUHasPages, b.CPUPinned, b.CPUStale = false, false, false
		b.GPUMapped, b.CPUMapped = false, false
		b.Discarded, b.LazyDiscard = false, false
		b.Degraded = false
		b.LivePages = 0
	}
	if err := d.space.Free(a); err != nil {
		return err
	}
	d.verify("FreeManaged")
	return nil
}

// MallocDevice claims chunks for a classic (non-UVM) device buffer; they
// come out of the free queue permanently until FreeDevice. This is the
// Listing 1 / Listing 4 programming model: it fails when the buffer does
// not fit in the remaining GPU memory.
func (d *Driver) MallocDevice(size units.Size) ([]*gpudev.Chunk, error) {
	n := units.BlocksIn(size)
	dev := d.devs[0]
	if n > dev.QueueLen(gpudev.QueueFree) {
		return nil, fmt.Errorf("core: cudaMalloc of %s fails: out of GPU memory (%d free chunks)",
			units.Format(size), dev.QueueLen(gpudev.QueueFree))
	}
	chunks := make([]*gpudev.Chunk, n)
	for i := range chunks {
		c := dev.PopFree()
		if c == nil {
			// Roll back: should be impossible after the check above.
			for _, cc := range chunks[:i] {
				dev.PushFree(cc)
			}
			return nil, fmt.Errorf("core: free queue underflow")
		}
		chunks[i] = c
	}
	d.deviceAllocBytes += units.Size(n) * units.BlockSize
	d.deviceChunkCount += n
	for _, c := range chunks {
		c.DeviceBuffer = true
	}
	d.verify("MallocDevice")
	return chunks, nil
}

// FreeDevice returns cudaMalloc'd chunks to the free queue. Chunks that are
// not currently tracked as device allocations — a double free, or a chunk
// that never came from MallocDevice — are ignored: pushing them would
// corrupt the free queue and underflow the byte counter.
func (d *Driver) FreeDevice(chunks []*gpudev.Chunk) {
	for _, c := range chunks {
		if !c.DeviceBuffer {
			continue
		}
		c.DeviceBuffer = false
		d.deviceChunkCount--
		d.devs[0].PushFree(c)
		d.deviceAllocBytes -= units.BlockSize
	}
	d.verify("FreeDevice")
}

// DeviceAllocBytes returns bytes currently held by non-UVM device buffers.
func (d *Driver) DeviceAllocBytes() units.Size { return d.deviceAllocBytes }

// ExplicitCopy times a cudaMemcpy of n bytes in the given direction (the
// No-UVM programming model's transfers), returning the completion time.
// Injected DMA failures are retried with backoff; once the budget is
// exhausted the copy drains through the PIO path at remote-access cost. The
// bytes are accounted exactly once regardless of how many attempts fail.
func (d *Driver) ExplicitCopy(dir metrics.Direction, n units.Size, now sim.Time) sim.Time {
	if n == 0 {
		return now
	}
	d.checkpoint("ExplicitCopy", now)
	end, ok := d.reserveTransfer(d.dma, faultinject.LinkPCIe, d.link.TransferTime(uint64(n)), now)
	if !ok {
		_, end = d.dma.Reserve(end, d.scaleDMA(d.link.RemoteAccessTime(uint64(n)), end))
		d.t.AddDegraded(uint64(n))
	}
	d.t.AddTransfer(dir, metrics.CauseMemcpy, uint64(n))
	return end
}

// record emits a trace event if tracing is on. It inlines to the nil
// compare, so an untraced run pays no call per event.
func (d *Driver) record(t sim.Time, kind trace.Kind, b *vaspace.Block, bytes units.Size) {
	if d.tr != nil {
		d.recordEvent(t, kind, b, bytes)
	}
}

// recordEvent is record's body, kept out of line so that record inlines.
//
//go:noinline
func (d *Driver) recordEvent(t sim.Time, kind trace.Kind, b *vaspace.Block, bytes units.Size) {
	d.tr.Record(trace.Event{
		T: t, Kind: kind, Alloc: int(b.Alloc), Block: int(b.Index), Bytes: uint64(bytes),
	})
}
