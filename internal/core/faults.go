package core

import (
	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/metrics"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/vaspace"
)

// This file is the driver's fault-recovery layer: every place the transfer
// and mapping paths can be hurt by an injected fault (internal/faultinject)
// routes through one of these helpers, and every helper guarantees the
// fault is *answered* — retried, replayed, degraded, or quarantined — never
// silently dropped. The accounting contract the chaos harness asserts:
//
//	injected DMA + peer failures == metrics.MigrateRetries()
//	injected unmap failures     == metrics.UnmapRetries()
//	injected overflows          <= metrics.FaultReplays()
//
// With no injector attached (d.fi == nil) every helper collapses to the
// exact pre-fault-injection behavior, byte for byte.

// Injector returns the attached fault injector, or nil when the driver runs
// fault-free.
func (d *Driver) Injector() *faultinject.Injector { return d.fi }

// scaleLink applies any active interconnect-degradation window to a
// transfer duration.
func (d *Driver) scaleLink(link faultinject.LinkID, dur, now sim.Time) sim.Time {
	if d.fi == nil {
		return dur
	}
	return d.fi.Scale(link, dur, now)
}

// scaleDMA is scaleLink for the CPU-GPU interconnect.
func (d *Driver) scaleDMA(dur, now sim.Time) sim.Time {
	return d.scaleLink(faultinject.LinkPCIe, dur, now)
}

// reserveTransfer reserves dur on eng at now, retrying injected transfer
// failures with bounded exponential backoff. A failed attempt still
// occupies the engine for the (possibly degraded) transfer time before the
// abort is observed. Returns the completion time of the last attempt and
// whether an attempt succeeded; ok == false means the retry budget is
// exhausted and the caller must degrade.
func (d *Driver) reserveTransfer(eng *sim.Engine, link faultinject.LinkID, dur, now sim.Time) (sim.Time, bool) {
	if d.fi == nil {
		_, end := eng.Reserve(now, dur)
		return end, true
	}
	draw := d.fi.DMAFails
	if link == faultinject.LinkPeer {
		draw = d.fi.PeerFails
	}
	cur := now
	for attempt := 0; ; attempt++ {
		// Draw the outcome before reserving so the decision sequence is a
		// pure function of driver issue order.
		fails := draw()
		_, end := eng.Reserve(cur, d.scaleLink(link, dur, cur))
		if !fails {
			return end, true
		}
		d.t.AddMigrateRetry()
		if attempt >= d.p.MaxMigrateRetries {
			return end, false
		}
		cur = end + migrateRetryBackoff<<attempt
	}
}

// retryH2D handles a block whose first coalesced-migration attempt already
// drew a failure: the aborted attempt and each subsequent retry occupy the
// DMA engine for the block's own transfer time, with exponential backoff in
// between. Returns the time the next attempt may start and whether a retry
// succeeded — the successful transfer itself is charged by the caller
// (coalesced run or page-granular path). ok == false means the block must
// degrade to host-pinned access.
func (d *Driver) retryH2D(b *vaspace.Block, now sim.Time) (sim.Time, bool) {
	cur := now
	_, dur := d.migrationCost(b)
	for attempt := 0; ; attempt++ {
		d.t.AddMigrateRetry()
		_, end := d.dma.Reserve(cur, d.scaleDMA(dur, cur))
		if attempt >= d.p.MaxMigrateRetries {
			return end, false
		}
		cur = end + migrateRetryBackoff<<attempt
		if !d.fi.DMAFails() {
			return cur, true
		}
	}
}

// degradeToHost serves a GPU access to a CPU-resident block over the
// interconnect after the migration retry budget is exhausted: the block
// stays host-resident and is marked Degraded, so subsequent faulting
// accesses skip the doomed migration and go remote until an explicit
// prefetch re-attempts (and clears) it. Reuses the coherent-access cost
// model (§2.3): the data is host-pinned and the GPU reads it through the
// link.
func (d *Driver) degradeToHost(b *vaspace.Block, now sim.Time) sim.Time {
	_, end := d.dma.Reserve(now, d.scaleDMA(d.link.RemoteAccessTime(uint64(b.Bytes())), now))
	d.t.AddTransfer(metrics.H2D, metrics.CauseRemote, uint64(b.Bytes()))
	d.t.AddDegraded(uint64(b.Bytes()))
	b.Degraded = true
	return end
}

// reserveD2H reserves a device-to-host transfer, retrying injected
// failures; when the budget is exhausted the data still reaches the host —
// drained through the coherent host-pinned path at remote-access cost — so
// a D2H fault can never strand dirty data on the GPU.
func (d *Driver) reserveD2H(b *vaspace.Block, xfer, now sim.Time) sim.Time {
	if d.fi == nil {
		_, end := d.dma.Reserve(now, xfer)
		return end
	}
	end, ok := d.reserveTransfer(d.dma, faultinject.LinkPCIe, xfer, now)
	if ok {
		return end
	}
	_, end2 := d.dma.Reserve(end, d.scaleDMA(d.link.RemoteAccessTime(uint64(b.Bytes())), end))
	d.t.AddDegraded(uint64(b.Bytes()))
	return end2
}

// unmapBlock charges one unmap/TLB shootdown, reissuing it while the
// injector fails the acknowledgement. Reissues are bounded by
// MaxMigrateRetries, after which the shootdown is forced through (the real
// driver escalates to a full TLB flush); each reissue costs another
// UnmapPerBlock and is recorded as an unmap retry.
func (d *Driver) unmapBlock(dev *gpudev.Device, now sim.Time) sim.Time {
	cur := now + dev.Profile().UnmapPerBlock
	d.t.AddUnmap(1)
	if d.fi == nil {
		return cur
	}
	for i := 0; i < d.p.MaxMigrateRetries+1 && d.fi.UnmapFails(); i++ {
		cur += dev.Profile().UnmapPerBlock
		d.t.AddUnmapRetry()
	}
	return cur
}

// unmapBlocks charges n unmapBlock calls in turn: under fault injection it
// makes them, so the injector sees the same draws, and otherwise it adds
// them up.
func (d *Driver) unmapBlocks(dev *gpudev.Device, n int, now sim.Time) sim.Time {
	if d.fi != nil {
		for i := 0; i < n; i++ {
			now = d.unmapBlock(dev, now)
		}
		return now
	}
	d.t.AddUnmap(n)
	return now + sim.Time(n)*dev.Profile().UnmapPerBlock
}

// maybePoison draws one ECC-poison event for this driver operation; when it
// hits, one used-queue chunk (chosen by the injector across all devices) is
// quarantined.
func (d *Driver) maybePoison(now sim.Time) sim.Time {
	if d.fi == nil || !d.fi.PoisonEvent() {
		return now
	}
	total := 0
	for _, dev := range d.devs {
		total += dev.QueueLen(gpudev.QueueUsed)
	}
	if total == 0 {
		return now
	}
	idx := d.fi.PickVictim(total)
	for gpu, dev := range d.devs {
		n := dev.QueueLen(gpudev.QueueUsed)
		if idx >= n {
			idx -= n
			continue
		}
		var victim *gpudev.Chunk
		i := 0
		dev.EachUsed(func(c *gpudev.Chunk) bool {
			if i == idx {
				victim = c
				return false
			}
			i++
			return true
		})
		return d.poisonChunk(gpu, victim, now)
	}
	return now
}

// poisonChunk retires a used-queue chunk hit by an ECC uncorrectable error:
// the chunk moves to the device's poisoned queue permanently (shrinking
// usable capacity), its mapping is torn down, and the owning block either
// survives on a valid host copy or loses its data and returns to Untouched
// — the same "reads observe zeros" outcome as a reclaimed discard (§4.1),
// but *recorded* as loss, never silent.
func (d *Driver) poisonChunk(gpu int, c *gpudev.Chunk, now sim.Time) sim.Time {
	a, b := d.ownerOf(c)
	d.clearRun(a)
	dev := d.devs[gpu]
	dev.Detach(c)
	cur := d.unmapBlock(dev, now)
	n := uint64(b.Bytes())
	if b.CPUHasPages && !b.CPUStale {
		// A valid host copy exists (a read-mostly duplicate, or pages that
		// were never dirtied on the GPU): the block survives CPU-resident.
		if b.CPUPinned {
			d.host.Unpin(b.Bytes())
			b.CPUPinned = false
		}
		b.Residency = vaspace.CPUResident
		b.CPUMapped = true
		d.t.AddPoison(n, 0)
	} else {
		// No valid copy anywhere else: the data is lost. The block returns
		// to Untouched and the loss is accounted, not hidden.
		if b.CPUHasPages {
			if b.CPUPinned {
				d.host.Unpin(b.Bytes())
			}
			d.host.Release(b.Bytes())
		}
		d.zeroData(b)
		b.Residency = vaspace.Untouched
		b.CPUHasPages, b.CPUPinned, b.CPUMapped = false, false, false
		d.t.AddPoison(0, n)
	}
	b.CPUStale = false
	b.GPUMapped = false
	b.ClearChunk()
	b.Discarded, b.LazyDiscard = false, false
	b.Degraded = false
	b.RemoteAccesses = 0
	b.LivePages = 0
	dev.PushPoisoned(c)
	return cur
}
