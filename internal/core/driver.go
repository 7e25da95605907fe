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
	// PeerGPUs adds further GPUs (indices 1..n) connected to the primary
	// through PeerLink — the multi-GPU topology §2.3 and §5.1 describe.
	PeerGPUs []gpudev.Profile
	// PeerLink is the GPU-to-GPU fabric (NVLink/NVSwitch class); defaults
	// to a 600 GB/s NVSwitch-like link, the figure the paper quotes for
	// A100 systems (§2.3).
	PeerLink *pcie.Link
	// ReservedBytes of GPU memory are pinned away to force an
	// oversubscription ratio, modeling the paper's idle co-resident
	// program (§7.1). Applies to the primary GPU.
	ReservedBytes units.Size
	// Link is the CPU-GPU interconnect; defaults to PCIe-4 if nil.
	Link *pcie.Link
	// Host models host DRAM; defaults to the paper's 64 GB host if nil.
	Host *hostmem.Host
	// Params are driver policy knobs; zero value means DefaultParams.
	Params *Params
	// Costs are the API cost models; nil means DefaultAPICosts (Table 2).
	Costs *APICosts
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
	devs     []*gpudev.Device
	host     *hostmem.Host
	link     *pcie.Link
	peerLink *pcie.Link
	space    *vaspace.Space
	m        *metrics.Collector
	tr       *trace.Recorder
	p        Params
	costs    *APICosts
	fi       *faultinject.Injector // nil when running fault-free
	ctl      *runctl.Control       // nil when the run is unbounded

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
	// O(1) conservation check compares against detached chunks.
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

	// Scratch buffers reused across driver operations so the hot path does
	// not allocate per access. The rules (DESIGN.md §15): a scratch is
	// valid only for the duration of one public driver operation, is
	// always re-sliced to [:0] before use, and no callee may retain a
	// reference past the operation. rangeScratch backs the block lists the
	// CUDA-facing entry points build; edgeScratch backs discard's partial-
	// edge list, which must coexist with the whole-block list of the same
	// call; runScratch backs the per-run block list of coalesced
	// transfers in ensureGPUBlocks (only materialized when tracing).
	rangeScratch []*vaspace.Block
	edgeScratch  []*vaspace.Block
	runScratch   []*vaspace.Block

	// Incremental-sanitizer state (sanitizer.go): blocks whose structural
	// state changed since the last check, and how many incremental checks
	// have run since the last full audit. Only maintained when
	// p.CheckInvariants is on.
	touched         []*vaspace.Block
	checksSinceFull int
}

// scratchCap is the initial capacity of the driver's scratch block slices:
// 256 blocks covers a 512 MiB operation range, comfortably beyond the
// prefetch/discard windows the workloads issue, at 2 KiB per slice. Larger
// ranges still work — the slice grows once and keeps the larger backing.
const scratchCap = 256

// Default interconnects are immutable after construction (pcie.Link has no
// setters), so every driver built without an explicit link shares one
// instance instead of rebuilding it per run.
var (
	// NVSwitch-class fabric: "the GPU-to-GPU remote access bandwidth is
	// limited to 600 GB/s" (§2.3).
	sharedDefaultPeerLink = pcie.NewLink(pcie.GenNVLink, 600e9, sim.Micros(4))
	sharedDefaultLink     = pcie.Preset(pcie.Gen4)
)

var (
	forceCheckInvariants      bool
	forceCheckInvariantsEvery int
)

// EnableInvariantChecksForTests turns the runtime sanitizer on for every
// driver subsequently built by New, regardless of Params.CheckInvariants,
// with the given sampling stride (values < 2 mean every operation). It
// exists for TestMain functions — the core and experiments test binaries
// call it so every driver constructed anywhere in a test run is checked —
// and must only be called before tests start.
func EnableInvariantChecksForTests(stride int) {
	forceCheckInvariants = true
	forceCheckInvariantsEvery = stride
}

// New builds a driver.
func New(cfg Config) (*Driver, error) {
	p := DefaultParams()
	if cfg.Params != nil {
		p = *cfg.Params
	}
	if forceCheckInvariants && !p.CheckInvariants {
		p.CheckInvariants = true
		p.CheckInvariantsEvery = forceCheckInvariantsEvery
		// Test mode wants maximal detection promptness: every check is a
		// full sweep, never the incremental pass.
		p.FullAuditEvery = 1
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
	peerLink := cfg.PeerLink
	if peerLink == nil {
		peerLink = sharedDefaultPeerLink
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
	costs := cfg.Costs
	if costs == nil {
		// Cost curves are immutable after construction, so every driver
		// with default costs shares one instance instead of rebuilding the
		// Table 2 interpolation tables per run (visible in alloc profiles
		// of experiment sweeps, which build thousands of drivers).
		costs = sharedDefaultCosts
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
		peerLink: peerLink,
		space:    vaspace.NewSpace(),
		m:        m,
		tr:       cfg.Trace,
		p:        p,
		costs:    costs,
		fi:       fi,
		ctl:      cfg.Control,
		simLimit: cfg.Control.SimLimit(),
		dma:      sim.NewEngine("dma"),
		peer:     sim.NewEngine("peer-fabric"),
		// Pre-size the range scratch for a typical prefetch/discard window
		// (scratchCap blocks) so per-driver first use does not replay the
		// whole append growth chain — experiment sweeps build thousands of
		// short-lived drivers and pay that chain once each otherwise.
		// edgeScratch and runScratch stay nil: most runs never take the
		// partial-edge or traced paths that fill them.
		rangeScratch: make([]*vaspace.Block, 0, scratchCap),
	}, nil
}

// Device returns the primary GPU device model.
func (d *Driver) Device() *gpudev.Device { return d.devs[0] }

// DeviceAt returns the i'th GPU device model.
func (d *Driver) DeviceAt(i int) *gpudev.Device { return d.devs[i] }

// NumGPUs returns how many GPUs the driver manages.
func (d *Driver) NumGPUs() int { return len(d.devs) }

// PeerLink returns the GPU-to-GPU fabric model.
func (d *Driver) PeerLink() *pcie.Link { return d.peerLink }

// EnginePeer exposes the peer fabric engine.
func (d *Driver) EnginePeer() *sim.Engine { return d.peer }

// Host returns the host memory model.
func (d *Driver) Host() *hostmem.Host { return d.host }

// Link returns the interconnect model.
func (d *Driver) Link() *pcie.Link { return d.link }

// Space returns the unified VA space.
func (d *Driver) Space() *vaspace.Space { return d.space }

// Metrics returns the instrumentation collector.
func (d *Driver) Metrics() *metrics.Collector { return d.m }

// Trace returns the trace recorder (may be nil).
func (d *Driver) Trace() *trace.Recorder { return d.tr }

// Costs returns the API cost models.
func (d *Driver) Costs() *APICosts { return d.costs }

// Params returns the active policy parameters.
func (d *Driver) Params() Params { return d.p }

// Control returns the run control (may be nil).
func (d *Driver) Control() *runctl.Control { return d.ctl }

// HasFaultInjection reports whether a fault-injection schedule is attached.
// Checkpoint capture refuses faulted runs: injector state (pending schedule
// position, retry backoff) is not serialized, so a resumed run would diverge
// from an uninterrupted one.
func (d *Driver) HasFaultInjection() bool { return d.fi != nil }

// RestoreDeviceAlloc overwrites the non-UVM device-buffer accounting from a
// checkpoint snapshot. Validated rather than trusted: the inputs come from a
// decoded file, and the pair must be internally consistent (whole chunks)
// or the sanitizer's conservation check would fail in a misleading place.
func (d *Driver) RestoreDeviceAlloc(bytes units.Size, chunks int) error {
	if chunks < 0 || bytes < 0 {
		return fmt.Errorf("core: restore with negative device-buffer accounting (%d chunks, %s)",
			chunks, units.Format(bytes))
	}
	if bytes != units.Size(chunks)*units.BlockSize {
		return fmt.Errorf("core: restore device-buffer accounting mismatch: %s is not %d whole chunks",
			units.Format(bytes), chunks)
	}
	d.deviceAllocBytes = bytes
	d.deviceChunkCount = chunks
	return nil
}

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
		runctl.Abort(i)
	}
	// Controlled runs are service runs: republish the residency gauges on a
	// stride so a /metrics scrape of a live run sees fresh per-device
	// occupancy without a collector-mutex acquisition per driver operation.
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

// PublishResidency pushes every device's current queue occupancy into the
// metrics collector as per-device gauges (metrics.DeviceResidency).
// Chunks are uniform (units.BlockSize), so occupancy is queue length times
// chunk size. The driver calls this on a stride from checkpoint during
// controlled (service) runs, and workloads.Collect calls it once at the end
// of every run so finished results always carry final residency. It reads
// only queue lengths and never mutates driver state, so publishing has no
// effect on simulated time or determinism.
func (d *Driver) PublishResidency() {
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
	for i := 0; i < a.NumBlocks(); i++ {
		b := a.Block(i)
		if b.Chunk != nil {
			dev := d.devs[b.GPUIndex]
			dev.Detach(b.Chunk)
			// Freeing tears down the VA range and its mappings with it,
			// so a lazily discarded chunk's deferred unmap (§5.6) no
			// longer applies at reclaim time; leaving the marker set
			// would charge a phantom unmap when the unused chunk is
			// reused.
			b.Chunk.NeedsUnmapOnReclaim = false
			b.Chunk.Owner = nil
			dev.PushUnused(b.Chunk)
			b.Chunk = nil
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
		d.m.AddDegraded(uint64(n))
	}
	d.m.AddTransfer(dir, metrics.CauseMemcpy, uint64(n))
	return end
}

// record emits a trace event if tracing is on.
func (d *Driver) record(t sim.Time, kind trace.Kind, b *vaspace.Block, bytes units.Size) {
	if d.tr == nil {
		return
	}
	d.tr.Record(trace.Event{
		T: t, Kind: kind, Alloc: b.Alloc.ID(), Block: b.Index, Bytes: uint64(bytes),
	})
}
