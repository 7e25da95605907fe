// Package metrics collects the driver-level instrumentation the paper's
// evaluation reports: PCIe traffic split by direction and cause, fault and
// eviction counts, zero-fill work, API time, and the transfers *avoided* by
// the discard directive.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
)

// Direction of a transfer over the interconnect.
type Direction int

const (
	// H2D is host-to-device (CPU → GPU).
	H2D Direction = iota
	// D2H is device-to-host (GPU → CPU).
	D2H
	numDirections
)

// String returns "H2D" or "D2H".
func (d Direction) String() string {
	switch d {
	case H2D:
		return "H2D"
	case D2H:
		return "D2H"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Cause classifies why a transfer happened.
type Cause int

const (
	// CauseFault is a migration triggered by a GPU or CPU page fault.
	CauseFault Cause = iota
	// CausePrefetch is a migration performed by cudaMemPrefetchAsync.
	CausePrefetch
	// CauseEviction is a swap-out performed by the eviction process under
	// GPU memory pressure.
	CauseEviction
	// CauseMemcpy is an explicit cudaMemcpy (No-UVM baseline only).
	CauseMemcpy
	// CauseRemote is a cache-coherent remote access over an NVLink-class
	// interconnect: data crosses the link without migrating (§2.3).
	CauseRemote
	numCauses
)

// String names the cause.
func (c Cause) String() string {
	switch c {
	case CauseFault:
		return "fault"
	case CausePrefetch:
		return "prefetch"
	case CauseEviction:
		return "eviction"
	case CauseMemcpy:
		return "memcpy"
	case CauseRemote:
		return "remote"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// EvictSource classifies where the eviction process found a chunk (§5.5).
type EvictSource int

const (
	// EvictFree means the allocation was satisfied from the free queue (no
	// eviction needed).
	EvictFree EvictSource = iota
	// EvictUnused reclaimed a leftover chunk (no transfer).
	EvictUnused
	// EvictDiscarded reclaimed a discarded chunk (no transfer — the
	// paper's savings mechanism).
	EvictDiscarded
	// EvictLRU swapped out the least-recently-used chunk (D2H transfer).
	EvictLRU
	numEvictSources
)

// String names the eviction source.
func (s EvictSource) String() string {
	switch s {
	case EvictFree:
		return "free"
	case EvictUnused:
		return "unused"
	case EvictDiscarded:
		return "discarded"
	case EvictLRU:
		return "lru"
	default:
		return fmt.Sprintf("EvictSource(%d)", int(s))
	}
}

// counter indexes one of a Collector's (and a Tally's) counters. Merge,
// Snapshot, Reset and Fold loop over them.
type counter uint8

const (
	cSavedH2D  counter = iota // bytes of H2D transfer avoided by discard
	cSavedD2H                 // bytes of D2H transfer avoided by discard
	cPeerBytes                // GPU-to-GPU transfers (do not cross host DRAM)
	cPeerOps
	cPeerSaved // peer transfers avoided by discard
	cFaultBatches
	cFaultedBlocks
	cZeroBlocks
	cZeroPages
	cUnmapBlocks
	cMapBlocks
	cDiscardCalls
	cDiscardBlocks
	cMigrateRetries // failed DMA/peer migration attempts that were retried
	cUnmapRetries   // reissued unmap/TLB shootdowns
	cFaultReplays   // replayed fault rounds after buffer overflow
	cDegradedBlocks // migrations degraded to coherent host-pinned access
	cDegradedBytes  // bytes served through the degradation path
	cPoisonedChunks // chunks quarantined by ECC-style poison
	cPoisonLost     // poisoned bytes with no valid host copy (data lost)
	cPoisonSaved    // poisoned bytes recovered from a valid host copy
	// cEvicts starts numEvictSources counters, one per eviction source.
	cEvicts
	// cBytes and cOps each start numTransfers counters: the bytes and the
	// DMA operations of each direction and cause (transfer).
	cBytes      = cEvicts + counter(numEvictSources)
	cOps        = cBytes + numTransfers
	numCounters = cOps + numTransfers
)

// numTransfers is the number of (direction, cause) pairs.
const numTransfers = counter(numDirections) * counter(numCauses)

// transfer returns the offset of (dir, cause) within the cBytes and cOps
// families.
func transfer(dir Direction, cause Cause) counter {
	return counter(dir)*counter(numCauses) + counter(cause)
}

// Collector accumulates counters for one simulation run. The zero value is
// ready to use.
//
// Ownership model (hot path): the counters are lock-free atomics, and the
// goroutine that owns a run is their only writer. Counts arrive in batches
// (Fold of a Tally): the driver adds its per-block counts to a plain tally
// that only it touches, and folds the tally in when it republishes the
// residency gauges, before it aborts a run, and whenever its collector is
// read through the driver (core.Driver.Metrics, PublishResidency), so the
// per-block path pays no atomic read-modify-write.
// Concurrent readers (the service's /metrics exporter snapshotting a live
// run, SSE progress reporters) load the same atomics, so scraping a
// running collector stays race-free; a live view lags the driver's own
// counts by at most one publishing stride, as the residency gauges do.
// Each counter is individually exact and monotonic; a snapshot taken
// mid-fold may be skewed by the fold in flight, which monotonic counters
// tolerate. Deterministic outputs only ever read a collector after its run
// finished and its tally was folded, where every view is exact.
//
// The mutex below guards only the cold composite state declared after it:
// the per-device residency gauges (republished at checkpoint stride, not
// per-op) and the API-time map.
type Collector struct {
	n [numCounters]atomic.Uint64

	mu sync.Mutex

	// devRes holds per-device residency gauges, indexed by GPU. Unlike the
	// counters above these are point-in-time values: the driver republishes
	// them at checkpoints (core.Driver.PublishResidency) and the service's
	// /metrics exporter renders them with device="gpuN" labels.
	devRes []DeviceResidency
	// devResInline backs devRes in the single-GPU case so the first
	// PublishResidency of a run does not heap-allocate; multi-GPU runs
	// grow onto the heap as usual.
	devResInline [1]DeviceResidency

	apiTime map[string]sim.Time
}

// Tally is a plain, unsynchronized batch of counter additions, and the way
// counts reach a Collector: the counting code adds to a tally and folds it
// into the collector (Collector.Fold). The driver keeps one tally per run,
// adds its per-block counts to it and folds it only now and then, so its
// per-block path pays no atomic read-modify-write. A Tally belongs to one
// goroutine.
type Tally struct {
	n [numCounters]uint64
}

// AddTransfer records a transfer of n bytes.
func (t *Tally) AddTransfer(dir Direction, cause Cause, n uint64) {
	k := transfer(dir, cause)
	t.n[cBytes+k] += n
	t.n[cOps+k]++
}

// AddSaved records n bytes of transfer avoided because the data was
// discarded.
func (t *Tally) AddSaved(dir Direction, n uint64) { t.n[savedCounter(dir)] += n }

// AddPeer records a GPU-to-GPU transfer of n bytes over the peer fabric.
func (t *Tally) AddPeer(n uint64) {
	t.n[cPeerBytes] += n
	t.n[cPeerOps]++
}

// AddPeerSaved records n bytes of peer transfer avoided by discard.
func (t *Tally) AddPeerSaved(n uint64) { t.n[cPeerSaved] += n }

// AddEviction records one chunk allocation satisfied from the given source.
func (t *Tally) AddEviction(src EvictSource) { t.n[cEvicts+counter(src)]++ }

// AddFaultBatch records one fault-service batch covering n blocks.
func (t *Tally) AddFaultBatch(blocks int) {
	t.n[cFaultBatches]++
	t.n[cFaultedBlocks] += uint64(blocks)
}

// AddZeroFill records zero-fill work: whole blocks and loose 4 KiB pages.
func (t *Tally) AddZeroFill(blocks, pages int) {
	t.n[cZeroBlocks] += uint64(blocks)
	t.n[cZeroPages] += uint64(pages)
}

// AddUnmap records PTE-destruction work on n blocks.
func (t *Tally) AddUnmap(blocks int) { t.n[cUnmapBlocks] += uint64(blocks) }

// AddMap records PTE-establishment work on n blocks.
func (t *Tally) AddMap(blocks int) { t.n[cMapBlocks] += uint64(blocks) }

// AddDiscard records one discard API call covering n blocks.
func (t *Tally) AddDiscard(blocks int) {
	t.n[cDiscardCalls]++
	t.n[cDiscardBlocks] += uint64(blocks)
}

// AddMigrateRetry records one retried (or finally degraded) DMA or peer
// migration attempt.
func (t *Tally) AddMigrateRetry() { t.n[cMigrateRetries]++ }

// AddUnmapRetry records one reissued unmap/TLB shootdown.
func (t *Tally) AddUnmapRetry() { t.n[cUnmapRetries]++ }

// AddFaultReplay records n replayed fault rounds.
func (t *Tally) AddFaultReplay(rounds int) { t.n[cFaultReplays] += uint64(rounds) }

// AddDegraded records one block migration degraded to host-pinned access.
func (t *Tally) AddDegraded(bytes uint64) {
	t.n[cDegradedBlocks]++
	t.n[cDegradedBytes] += bytes
}

// AddPoison records one chunk quarantined by ECC-style poison.
func (t *Tally) AddPoison(recovered, lost uint64) {
	t.n[cPoisonedChunks]++
	t.n[cPoisonSaved] += recovered
	t.n[cPoisonLost] += lost
}

// Fold adds t's counts into c and empties t. Each counter takes one atomic
// add, and only if t counted anything for it.
func (c *Collector) Fold(t *Tally) {
	for k, n := range t.n {
		if n != 0 {
			c.n[k].Add(n)
		}
	}
	t.n = [numCounters]uint64{}
}

// savedCounter returns the counter of transfer bytes avoided in dir.
func savedCounter(dir Direction) counter {
	if dir == H2D {
		return cSavedH2D
	}
	return cSavedD2H
}

// DeviceResidency is a point-in-time view of one simulated GPU's physical
// chunk pool, in bytes, split by the driver's page queues (§5.5). Used is
// live resident data; Unused and Discarded hold dead data reclaimable
// without a transfer; Reserved models the oversubscription knob's idle
// co-resident program; Poisoned is ECC-quarantined capacity.
type DeviceResidency struct {
	CapacityBytes  uint64
	FreeBytes      uint64
	UnusedBytes    uint64
	UsedBytes      uint64
	DiscardedBytes uint64
	ReservedBytes  uint64
	PoisonedBytes  uint64
}

// New returns an empty collector.
func New() *Collector {
	return &Collector{apiTime: make(map[string]sim.Time)}
}

// Peer returns (bytes, ops) of GPU-to-GPU traffic.
func (c *Collector) Peer() (bytes uint64, ops int64) {
	return c.n[cPeerBytes].Load(), c.load(cPeerOps)
}

// PeerSaved returns the peer-transfer bytes avoided by discard.
func (c *Collector) PeerSaved() uint64 { return c.n[cPeerSaved].Load() }

// load reads counter k as the signed count its accessor reports.
func (c *Collector) load(k counter) int64 { return int64(c.n[k].Load()) }

// MigrateRetries returns the number of retried migration attempts.
func (c *Collector) MigrateRetries() int64 { return c.load(cMigrateRetries) }

// UnmapRetries returns the number of reissued unmap shootdowns.
func (c *Collector) UnmapRetries() int64 { return c.load(cUnmapRetries) }

// FaultReplays returns the number of replayed fault rounds.
func (c *Collector) FaultReplays() int64 { return c.load(cFaultReplays) }

// Degraded returns (blocks, bytes) that fell back to coherent host-pinned
// access.
func (c *Collector) Degraded() (blocks int64, bytes uint64) {
	return c.load(cDegradedBlocks), c.n[cDegradedBytes].Load()
}

// Poisoned returns quarantined-chunk counts: recovered bytes had a valid
// host copy, lost bytes did not.
func (c *Collector) Poisoned() (chunks int64, recovered, lost uint64) {
	return c.load(cPoisonedChunks), c.n[cPoisonSaved].Load(), c.n[cPoisonLost].Load()
}

// SetDeviceResidency records a point-in-time residency view for GPU gpu,
// growing the per-device table as needed.
func (c *Collector) SetDeviceResidency(gpu int, r DeviceResidency) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.devRes == nil {
		c.devRes = c.devResInline[:0]
	}
	for len(c.devRes) <= gpu {
		c.devRes = append(c.devRes, DeviceResidency{})
	}
	c.devRes[gpu] = r
}

// DeviceResidency returns a copy of the per-device residency gauges, one
// entry per GPU that has published (empty until the driver's first
// PublishResidency).
func (c *Collector) DeviceResidency() []DeviceResidency {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]DeviceResidency(nil), c.devRes...)
}

// Merge adds src's counters into c. The service's /metrics exporter uses it
// to maintain one cumulative simulation collector across finished runs, so
// the exported counters stay monotonic while each run keeps its own
// isolated collector. Residency gauges are not counters: src's gauges
// overwrite c's when src has published any (last run wins). src is
// snapshotted first, so merging a live collector is safe.
func (c *Collector) Merge(src *Collector) {
	s := src.Snapshot()
	for k := range c.n {
		c.n[k].Add(s.n[k].Load())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(s.devRes) > 0 {
		c.devRes = append(c.devRes[:0], s.devRes...)
	}
	if c.apiTime == nil {
		c.apiTime = make(map[string]sim.Time, len(s.apiTime))
	}
	for k, v := range s.apiTime {
		c.apiTime[k] += v
	}
}

// AddAPITime attributes host-side time to a named API.
func (c *Collector) AddAPITime(api string, t sim.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.apiTime == nil {
		c.apiTime = make(map[string]sim.Time)
	}
	c.apiTime[api] += t
}

// Bytes returns the bytes transferred in dir for cause.
func (c *Collector) Bytes(dir Direction, cause Cause) uint64 {
	return c.n[cBytes+transfer(dir, cause)].Load()
}

// Ops returns the number of DMA operations in dir for cause.
func (c *Collector) Ops(dir Direction, cause Cause) int64 {
	return c.load(cOps + transfer(dir, cause))
}

// TotalBytes returns all interconnect traffic in one direction.
func (c *Collector) TotalBytes(dir Direction) uint64 {
	var t uint64
	for cause := Cause(0); cause < numCauses; cause++ {
		t += c.Bytes(dir, cause)
	}
	return t
}

// Traffic returns total interconnect traffic in both directions — the
// quantity the paper's "PCIe traffic (GB)" tables report.
func (c *Collector) Traffic() uint64 {
	return c.TotalBytes(H2D) + c.TotalBytes(D2H)
}

// Saved returns the bytes of transfer avoided by discard in each direction.
func (c *Collector) Saved() (h2d, d2h uint64) {
	return c.n[cSavedH2D].Load(), c.n[cSavedD2H].Load()
}

// Evictions returns the count for one eviction source.
func (c *Collector) Evictions(src EvictSource) int64 {
	return c.load(cEvicts + counter(src))
}

// FaultBatches returns (batches, totalFaultedBlocks).
func (c *Collector) FaultBatches() (batches, blocks int64) {
	return c.load(cFaultBatches), c.load(cFaultedBlocks)
}

// ZeroFills returns (wholeBlocks, loosePages).
func (c *Collector) ZeroFills() (blocks, pages int64) {
	return c.load(cZeroBlocks), c.load(cZeroPages)
}

// Unmaps returns the number of blocks whose PTEs were destroyed.
func (c *Collector) Unmaps() int64 { return c.load(cUnmapBlocks) }

// Maps returns the number of blocks whose PTEs were established.
func (c *Collector) Maps() int64 { return c.load(cMapBlocks) }

// Discards returns (calls, blocksCovered).
func (c *Collector) Discards() (calls, blocks int64) {
	return c.load(cDiscardCalls), c.load(cDiscardBlocks)
}

// APITime returns accumulated host time for a named API.
func (c *Collector) APITime(api string) sim.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.apiTime[api]
}

// Reset zeroes all counters.
func (c *Collector) Reset() {
	for k := range c.n {
		c.n[k].Store(0)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.devRes = nil
	c.apiTime = make(map[string]sim.Time)
}

// Snapshot returns an independent copy of the collector's current state.
// The copy is detached: later additions to c do not show up in it, so a
// live-progress reporter can render a consistent view while the run
// continues. Each counter is read atomically; a snapshot of a collector
// whose run has finished is exact.
func (c *Collector) Snapshot() *Collector {
	s := &Collector{}
	for k := range c.n {
		s.n[k].Store(c.n[k].Load())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.devRes = append([]DeviceResidency(nil), c.devRes...)
	s.apiTime = make(map[string]sim.Time, len(c.apiTime))
	for k, v := range c.apiTime {
		s.apiTime[k] = v
	}
	return s
}

// Summary renders a human-readable multi-line report.
func (c *Collector) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "traffic: total %.2f GB (H2D %.2f GB, D2H %.2f GB)\n",
		units.GB(c.TotalBytes(H2D)+c.TotalBytes(D2H)),
		units.GB(c.TotalBytes(H2D)), units.GB(c.TotalBytes(D2H)))
	for dir := Direction(0); dir < numDirections; dir++ {
		for cause := Cause(0); cause < numCauses; cause++ {
			n := c.Bytes(dir, cause)
			if n == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %s/%s: %.2f GB in %d ops\n",
				dir, cause, units.GB(n), c.Ops(dir, cause))
		}
	}
	savedH2D, savedD2H := c.Saved()
	fmt.Fprintf(&b, "saved by discard: H2D %.2f GB, D2H %.2f GB\n",
		units.GB(savedH2D), units.GB(savedD2H))
	if peerBytes, peerOps := c.Peer(); peerBytes > 0 || c.PeerSaved() > 0 {
		fmt.Fprintf(&b, "peer (GPU-GPU): %.2f GB in %d ops; saved by discard %.2f GB\n",
			units.GB(peerBytes), peerOps, units.GB(c.PeerSaved()))
	}
	fmt.Fprintf(&b, "evictions: free %d, unused %d, discarded %d, lru %d\n",
		c.Evictions(EvictFree), c.Evictions(EvictUnused),
		c.Evictions(EvictDiscarded), c.Evictions(EvictLRU))
	faultBatches, faultedBlocks := c.FaultBatches()
	zeroBlocks, zeroPages := c.ZeroFills()
	fmt.Fprintf(&b, "faults: %d batches, %d blocks; zero-fill: %d blocks + %d pages\n",
		faultBatches, faultedBlocks, zeroBlocks, zeroPages)
	discardCalls, discardBlocks := c.Discards()
	fmt.Fprintf(&b, "PTE ops: %d unmapped, %d mapped; discards: %d calls over %d blocks\n",
		c.Unmaps(), c.Maps(), discardCalls, discardBlocks)
	// Resilience lines appear only when fault injection actually fired, so
	// fault-free runs render byte-identical summaries to earlier versions.
	if c.MigrateRetries() > 0 || c.UnmapRetries() > 0 || c.FaultReplays() > 0 {
		fmt.Fprintf(&b, "fault recovery: %d migrate retries, %d unmap reissues, %d replayed fault rounds\n",
			c.MigrateRetries(), c.UnmapRetries(), c.FaultReplays())
	}
	if blocks, bytes := c.Degraded(); blocks > 0 {
		fmt.Fprintf(&b, "degraded to host-pinned: %d transfers, %.2f GB\n",
			blocks, units.GB(bytes))
	}
	if chunks, recovered, lost := c.Poisoned(); chunks > 0 {
		fmt.Fprintf(&b, "poisoned chunks: %d quarantined (%.2f GB recovered from host, %.2f GB lost)\n",
			chunks, units.GB(recovered), units.GB(lost))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.apiTime) > 0 {
		names := make([]string, 0, len(c.apiTime))
		for k := range c.apiTime {
			names = append(names, k)
		}
		sort.Strings(names)
		b.WriteString("API time:")
		for _, k := range names {
			fmt.Fprintf(&b, " %s=%v", k, c.apiTime[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
