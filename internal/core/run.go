package core

import (
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/vaspace"
)

// This file holds resident runs (DESIGN.md §15): an allocation whose every
// block is a clean GPU hit, with its chunks lying contiguously on the used
// queue in block order, is served by a whole-buffer access in O(1). Such an
// access faults nothing, moves no data, and only moves the chunks to the MRU
// end in block order — which moving the stretch does at once. A
// whole-buffer discard turns the run into its discarded shape, every block
// discarded and its chunk on the discarded queue in the same order, and a
// whole-buffer prefetch recovers it (§5.7), each with one move of the
// stretch between the two queues. The run state lives on vaspace.Alloc
// (Alloc.Resident); ensureGPUBlocks forms it, and every path that changes
// the allocation's blocks or their chunks' queue positions clears it
// (clearRun).

// blockSeq is the sequence of one allocation's blocks a GPU access visits:
// the span of blocks from index first on in address order, or, when order
// is non-nil, the blocks at order's indexes in that order (a Scatter pass).
type blockSeq struct {
	a        *vaspace.Alloc
	span     []vaspace.Block // a.Span of the covered blocks
	first, n int
	order    []int
}

// accessSeq resolves [off, off+length) of a, visited in order (nil: address
// order), to a block sequence. order must hold only indexes of the span: at
// panics on any other, and a GPU access's fault pass visits every block
// before the access changes one.
func accessSeq(a *vaspace.Alloc, off, length uint64, order []int) (blockSeq, error) {
	first, last, err := a.BlockSpan(off, length, false)
	if err != nil {
		return blockSeq{}, err
	}
	seq := blockSeq{a: a, first: first, n: last - first + 1, order: order}
	if seq.n > 0 {
		seq.span = a.Span(first, last)
	}
	if order != nil {
		seq.n = len(order)
	}
	return seq, nil
}

// at returns the k'th block the sequence visits.
func (s blockSeq) at(k int) *vaspace.Block {
	if s.order != nil {
		return &s.span[s.order[k]-s.first]
	}
	return &s.span[k]
}

// whole reports whether the sequence visits every block of its allocation
// once, in address order: the only sequence a resident run serves or forms.
func (s blockSeq) whole() bool {
	return s.order == nil && s.first == 0 && s.n == s.a.NumBlocks()
}

// cleanHit reports whether a GPU access on gpu finds b resident there with
// nothing to do but a recency touch: GPU-resident on gpu, not discarded, no
// live-page split (which costs a TLB penalty per access), and not
// read-mostly (whose writes collapse a duplicate). A GPU-resident block that
// is not discarded always has its chunk on the used queue.
func cleanHit(b *vaspace.Block, gpu int) bool {
	return b.Residency == vaspace.GPUResident && b.GPUIndex == gpu &&
		!b.Discarded && b.LivePages == 0 && !b.ReadMostly
}

// onRun reports whether an access visiting seq on gpu can be served through
// its allocation's standing run in the given shape: the resident one
// (discarded false), whose blocks are clean hits, or the discarded one
// (recoverRun). A traced access takes the resident run too: the per-block
// loop would record every block's access at the access's time, and
// GPUAccessOn records the same events; a prefetch hit records nothing
// either way.
func (d *Driver) onRun(seq blockSeq, gpu int, discarded bool) bool {
	r := seq.a.Resident
	return r.On && r.GPU == gpu && r.Discarded == discarded && !d.perBlock && seq.whole()
}

// discardsRuns reports whether a whole-buffer discard over a resident run
// goes through the run (discardRun). A trace recorder keeps the per-block
// path: the loop records each block's Discard at its own time, after that
// block's unmap, and Figure 3, the one traced artifact, never discards. So
// no discarded run forms under a recorder, and recoverRun serves none. The
// ImmediateReclaim ablation, whose chunks never stay on the discarded queue,
// and PreparedTracking=false, whose recovery zero-fills every block, keep
// the per-block path too.
func (d *Driver) discardsRuns() bool {
	return d.tr == nil && !d.perBlock && !d.p.ImmediateReclaim && d.p.PreparedTracking
}

// clearRun ends a's resident run, and stops one from forming if the current
// ensureGPUBlocks pass is building it (an eviction of one of a's chunks
// mid-pass can split the stretch the pass has built).
func (d *Driver) clearRun(a *vaspace.Alloc) {
	a.Resident = vaspace.ResidentRun{}
	if d.forming == a {
		d.forming = nil
	}
}

// touchRun serves an access to every block of a through its standing run:
// the per-block loop's block checkpoints, at the times that loop would have
// reached them (step of driver time per block), then one move of the
// stretch to the MRU end, which leaves the used queue exactly as touching
// each chunk in block order would. It returns now plus n steps.
//
// The move comes after the checkpoints: an abort between them leaves the
// queues as they were before the access, which is consistent, and an
// interrupted run's queues are thrown away.
func (d *Driver) touchRun(a *vaspace.Alloc, now, step sim.Time) sim.Time {
	d.runAccesses++
	n := a.NumBlocks()
	d.runCheckpoints(n, now, step)
	d.devs[a.Resident.GPU].MoveStretch(a.Block(0).Chunk, a.Block(n-1).Chunk, n, gpudev.QueueUsed, nil)
	return now + sim.Time(n)*step
}

// discardRun discards every block of a through its standing resident run
// and leaves the run in its discarded shape. An eager discard charges the n
// unmaps the per-block loop would, drawing each from the fault injector in
// the same order; a lazy one defers them to reclamation. Then one move
// takes the stretch from the used queue to the discarded tail, which
// leaves both queues as detaching each chunk and pushing it there in block
// order would, and its relabelling pass makes the loop's changes to each
// block (discardBlock). A discard polls only at its entry, so the run path
// has no checkpoint to cross. A traced driver never comes here
// (discardsRuns): the per-block loop records each block's Discard at the
// time that block's unmap ends.
func (d *Driver) discardRun(a *vaspace.Alloc, now sim.Time, lazy bool) sim.Time {
	d.runDiscards++
	r := &a.Resident
	dev := d.devs[r.GPU]
	span := a.Span(0, a.NumBlocks()-1)
	if !lazy {
		now = d.unmapBlocks(dev, len(span), now)
	}
	dev.MoveStretch(span[0].Chunk, span[len(span)-1].Chunk, len(span), gpudev.QueueDiscarded,
		func(i int) *gpudev.Chunk {
			b := &span[i]
			b.Discarded, b.LazyDiscard = true, lazy
			b.Chunk.NeedsUnmapOnReclaim = lazy
			if !lazy {
				b.GPUMapped = false
			}
			return b.Chunk
		})
	r.Discarded, r.Lazy = true, lazy
	return now
}

// recoverRun serves a prefetch of every block of a on its run's GPU
// through its standing discarded run, recovering each chunk as
// recoverDiscarded would (§5.7). It crosses the per-block loop's ensure-gpu
// checkpoints first, at the times that loop would reach them: an eagerly
// discarded block is remapped at MapPerBlock, a lazily discarded one kept
// its mappings and costs nothing, and every chunk is fully prepared, so
// none is zeroed again. Then it moves the stretch back to the MRU end of
// the used queue, clearing each block's discard state in the move's
// relabelling pass, and the run stands in its resident shape. It returns
// now plus n steps. A traced driver never comes here: only discardRun
// forms a discarded run, and it refuses a recorder.
func (d *Driver) recoverRun(a *vaspace.Alloc, now sim.Time) sim.Time {
	d.runRecoveries++
	r := &a.Resident
	dev := d.devs[r.GPU]
	n := a.NumBlocks()
	var step sim.Time
	if !r.Lazy {
		step = dev.Profile().MapPerBlock
	}
	d.runCheckpoints(n, now, step)
	span := a.Span(0, n-1)
	stale := true
	if !r.Lazy {
		d.m.AddMap(n)
	}
	dev.MoveStretch(span[0].Chunk, span[n-1].Chunk, n, gpudev.QueueUsed,
		func(i int) *gpudev.Chunk {
			b := &span[i]
			b.Discarded, b.LazyDiscard = false, false
			b.GPUMapped = true
			b.Chunk.NeedsUnmapOnReclaim = false
			stale = stale && b.CPUStale
			return b.Chunk
		})
	*r = vaspace.ResidentRun{On: true, GPU: r.GPU, Stale: stale}
	return now + sim.Time(n)*step
}

// runCheckpoints crosses the n "ensure-gpu" block checkpoints of a run
// access arithmetically, checkpoint j seeing sim time now+j*step. It polls
// the control at exactly the checkpoints, and with exactly the times, at
// which n blockCheckpoint calls would: where the countdown runs out, and
// wherever the time is past the sim budget.
func (d *Driver) runCheckpoints(n int, now, step sim.Time) {
	if d.ctl == nil {
		return
	}
	for j := 0; j < n; {
		// blockCheckpoint decrements the countdown and polls once it is
		// at or below zero.
		p := j + d.blockPolls - 1
		if p < j {
			p = j
		}
		// The first checkpoint from j on whose time is past the budget.
		if t := now + sim.Time(j)*step; t > d.simLimit {
			p = j
		} else if step > 0 {
			if s := j + int((d.simLimit-t)/step) + 1; s < p {
				p = s
			}
		}
		if p >= n {
			d.blockPolls -= n - j
			return
		}
		d.poll("ensure-gpu", now+sim.Time(p)*step) // restarts the countdown
		j = p + 1
	}
}
