// Package core implements the paper's contribution — the UvmDiscard and
// UvmDiscardLazy directives — inside a model of NVIDIA's UVM driver: the
// unified address space's fault, prefetch, and eviction paths, the per-GPU
// physical page queues of §5.5, delayed reclamation (§5.6), recovery on
// access-after-discard (§5.7), and 2 MiB-granularity management (§5.4).
//
// The driver operates on virtual time (internal/sim): every operation takes
// a ready time and returns a completion time, reserving intervals on the
// H2D/D2H DMA engines and the driver service thread. Memory-state
// transitions are applied in issue order; timing overlap between streams
// emerges from the independent engine timelines.
package core

import (
	"fmt"

	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
)

// Params holds the driver's policy knobs. The zero value is not valid; use
// DefaultParams.
type Params struct {
	// EvictionOrder is the sequence of queues the eviction process tries
	// after the free queue, §5.5. Default: unused, discarded, LRU-used.
	// (EvictFree is implicit and always first; including it here is an
	// error.)
	EvictionOrder []metrics.EvictSource

	// ImmediateReclaim, when true, reclaims a discarded block's physical
	// chunk at discard time instead of delaying reclamation (§5.6
	// ablation). This forfeits cheap recovery when the block is re-used
	// by the same GPU before memory pressure would have evicted it.
	ImmediateReclaim bool

	// PreparedTracking enables the §5.7 data structure that tracks
	// whether each 2 MiB chunk was fully zeroed/migrated; when disabled,
	// every recovered discarded chunk is conservatively re-zeroed.
	PreparedTracking bool

	// AllowPartialDiscard enables the §5.4 ablation: discards that cover
	// only part of a 2 MiB block split the block instead of being
	// ignored; the live remainder then migrates at 4 KiB granularity.
	AllowPartialDiscard bool

	// FaultBatchBlocks is the maximum number of 2 MiB blocks serviced in
	// one replayable-fault batch.
	FaultBatchBlocks int

	// CheckInvariantsEvery runs the runtime sanitizer (sanitizer.go) after
	// every Nth public driver operation: the full sweep of
	// chunk-in-exactly-one-queue, chunk↔block back-pointers, byte
	// conservation across all devices, host accounting, and the discard
	// protocol rules, panicking with a diagnostic naming the offending
	// alloc/block/chunk. 0 (the default) turns it off; 1 checks after every
	// operation. The sweep is O(blocks + chunks), so full-scale runs use a
	// stride that keeps its cost small while still bracketing any
	// corruption to an N-operation window. The core and experiments test
	// binaries turn it on for every driver (EnableInvariantChecksForTests).
	CheckInvariantsEvery int

	// PanicOnSilentReuse escalates the §5.2 lazy-discard protocol hazard
	// from silently-modeled (the paper's semantics: the driver never
	// observes the access, and a later reclaim loses the data) to an
	// immediate panic naming the block. Separate from CheckInvariantsEvery
	// because the hazard is an *application* protocol violation, not a
	// driver-state inconsistency — tests that deliberately model the
	// hazard keep it off while the sanitizer runs.
	PanicOnSilentReuse bool

	// MaxMigrateRetries bounds how many times a failed migration (an
	// injected DMA, peer, or unmap fault — internal/faultinject) is
	// retried before the driver gives up and degrades the access to
	// coherent host-pinned service. Only consulted when a fault injector
	// is attached; 0 means degrade on the first failure.
	MaxMigrateRetries int

	// RemoteAccessMigrateThreshold enables the cache-coherent
	// remote-access mode of §2.3 when the link is coherent and the value
	// is positive: a GPU access to CPU-resident data is served over the
	// link without migrating, and the driver's access counters promote
	// the block to GPU residency once it has been touched remotely this
	// many times. Zero (the default) always migrates, as on the paper's
	// PCIe platform.
	RemoteAccessMigrateThreshold int
}

// Driver costs that are not part of the GPU hardware profile.
const (
	// prefetchRecencyPerBlock is the driver work to update access recency
	// for an already-resident prefetched block — the prefetch that
	// "neither transfers nor prefaults memory but only updates the
	// recency of page accesses" and still measurably costs time on
	// CNN-style pipelines (§7.5.1).
	prefetchRecencyPerBlock = 400 * sim.Nanosecond

	// cpuFirstTouchPerBlock is the host-side cost to populate one 2 MiB
	// block with zero-filled pages on first touch (512 minor faults).
	cpuFirstTouchPerBlock = 520 * sim.Microsecond

	// cpuMinorFault is the cost of re-establishing a destroyed CPU
	// mapping (after an eager discard) on next host access.
	cpuMinorFault = 1200 * sim.Nanosecond

	// pageDMALatency is the per-operation latency charged when a partial
	// block must move as individual 4 KiB DMA operations (§5.4 ablation);
	// each 4 KiB page pays this on top of link bandwidth.
	pageDMALatency = 2500 * sim.Nanosecond

	// splitTLBPenalty is the extra per-access translation cost on a block
	// whose 2 MiB mapping was split into 4 KiB PTEs (§5.4: "Using 2MB
	// mappings ... can greatly increase the coverage of GPU TLBs and
	// reduce GPU address translation overhead"). Charged on every GPU
	// access to a split block under the AllowPartialDiscard ablation.
	splitTLBPenalty = 8 * sim.Microsecond

	// migrateRetryBackoff is the base sim-time backoff between migration
	// retry attempts; attempt n waits migrateRetryBackoff << (n-1)
	// (bounded exponential, §5.7-style driver pacing). Only consulted when
	// a fault injector is attached.
	migrateRetryBackoff = 25 * sim.Microsecond
)

// defaultEvictionOrder backs every DefaultParams copy. It is treated as
// immutable: all call sites override EvictionOrder by assigning a fresh
// slice, never by writing elements, so the copies can share one backing
// array instead of allocating one per driver (experiment sweeps build
// thousands of drivers).
var defaultEvictionOrder = []metrics.EvictSource{
	metrics.EvictUnused, metrics.EvictDiscarded, metrics.EvictLRU,
}

// DefaultParams returns the configuration that reproduces the paper's
// system.
func DefaultParams() Params {
	return Params{
		EvictionOrder:     defaultEvictionOrder,
		PreparedTracking:  true,
		FaultBatchBlocks:  16,
		MaxMigrateRetries: 4,
	}
}

// Validate checks the parameter set.
func (p *Params) Validate() error {
	if len(p.EvictionOrder) == 0 {
		return fmt.Errorf("core: empty eviction order")
	}
	seen := map[metrics.EvictSource]bool{}
	for _, s := range p.EvictionOrder {
		if s == metrics.EvictFree {
			return fmt.Errorf("core: eviction order must not include the free queue (it is implicit)")
		}
		if seen[s] {
			return fmt.Errorf("core: duplicate eviction source %v", s)
		}
		seen[s] = true
	}
	if !seen[metrics.EvictLRU] {
		return fmt.Errorf("core: eviction order must end with a source that can always supply a chunk (lru)")
	}
	if p.FaultBatchBlocks <= 0 {
		return fmt.Errorf("core: fault batch size must be positive")
	}
	if p.RemoteAccessMigrateThreshold < 0 {
		return fmt.Errorf("core: negative remote-access threshold")
	}
	if p.MaxMigrateRetries < 0 || p.MaxMigrateRetries > 16 {
		return fmt.Errorf("core: MaxMigrateRetries %d outside [0,16]", p.MaxMigrateRetries)
	}
	if p.CheckInvariantsEvery < 0 {
		return fmt.Errorf("core: negative sanitizer stride")
	}
	return nil
}
