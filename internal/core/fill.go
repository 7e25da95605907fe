package core

import (
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/vaspace"
)

// This file holds fill passes (DESIGN.md §15): an ensureGPUBlocks pass
// whose every block takes a fresh chunk, zero-filled (actZero: untouched,
// or discarded while host-resident) or migrated into whole from the host
// (actTransfer with no live-page split). Oversubscribed runs are mostly
// such passes: each block swaps an LRU victim out (§2.2) and faults in.
// scanPass recognizes one from the classification it makes of every block
// anyway, and fillBlocks then makes each block's changes without
// classifying it again or dispatching it on an action.
//
// A block the pass has not reached keeps its action: it holds no chunk, so
// no eviction, reclaim or recency touch the pass makes can change it, and
// the pass changes each block only when it visits it (a visit order is a
// permutation of the span). Its residency and discard bit then tell a zero
// from a transfer. A trace recorder, which wants each block's events, a
// fault injector, which draws per block, and Driver.perBlock, the tests'
// reference, keep every pass on visitBlocks.

// fillBlocks is ensureGPUBlocks's loop for a fill pass. It makes the state
// changes, counts, flushes and block checkpoints visitBlocks makes for the
// same blocks, in the same order and at the same sim times: each block's
// ensure-gpu checkpoint, then the evict one in allocChunk; a transfer joins
// the pending coalesced H2D run, and a zero-fill flushes that run before
// its own work. It drops the second classification, the action switch, the
// per-block flush and fault-injector tests, and the zero-fill time, which
// it computes once. It returns what visitBlocks returns.
func (d *Driver) fillBlocks(seq blockSeq, now sim.Time, cause metrics.Cause, gpu int, clean bool) (sim.Time, bool, bool, error) {
	d.fillPasses++
	cur, stale := now, true
	prof := d.devs[gpu].Profile()
	zeroMap := prof.ZeroTimeBlock() + prof.MapPerBlock
	var runBytes units.Size
	var runCount int
	for k := 0; k < seq.n; k++ {
		b := seq.at(k)
		d.blockCheckpoint("ensure-gpu", cur)
		var c *gpudev.Chunk
		var err error
		if b.Residency == vaspace.CPUResident && !b.Discarded {
			// actTransfer: the block joins the coalesced run.
			if c, cur, err = d.allocChunk(b, gpu, cur); err != nil {
				return cur, false, false, err
			}
			runBytes += b.Bytes()
			runCount++
			d.migratedIn(b, gpu, c)
		} else {
			// actZero.
			if runBytes > 0 {
				cur = d.flushH2D(cur, runBytes, runCount, cause)
				runBytes, runCount = 0, 0
			}
			if c, cur, err = d.allocChunk(b, gpu, cur); err != nil {
				return cur, false, false, err
			}
			if b.Discarded {
				d.dropDiscarded(b)
			}
			cur += zeroMap
			d.zeroFilled(b, gpu, c, cur)
		}
		if clean {
			clean, stale = cleanHit(b, gpu), stale && b.CPUStale
		}
	}
	if runBytes > 0 {
		cur = d.flushH2D(cur, runBytes, runCount, cause)
	}
	return cur, clean, stale, nil
}
