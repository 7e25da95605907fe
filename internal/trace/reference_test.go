package trace_test

import (
	"sort"

	"uvmdiscard/internal/trace"
)

// The map-based classifier that trace.Analyze replaced, kept as the oracle
// for FuzzAnalyze: it regroups the events into a map of per-block slices
// and scans forward from every transfer.

type blockKey struct{ alloc, block int }

// refBlock is one (alloc, block) pair's time-ordered events.
type refBlock struct {
	alloc, block int
	evs          []trace.Event
}

// referenceBlocks groups events per block in ascending (alloc, block)
// order, each block stably sorted by time.
func referenceBlocks(events []trace.Event) []refBlock {
	if len(events) == 0 {
		return nil
	}
	// Group events per block, preserving order within each block.
	perBlock := make(map[blockKey][]trace.Event)
	for _, ev := range events {
		k := blockKey{ev.Alloc, ev.Block}
		perBlock[k] = append(perBlock[k], ev)
	}
	// Deterministic iteration order (for reproducible debugging output,
	// not correctness).
	keys := make([]blockKey, 0, len(perBlock))
	for k := range perBlock {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alloc != keys[j].alloc {
			return keys[i].alloc < keys[j].alloc
		}
		return keys[i].block < keys[j].block
	})
	out := make([]refBlock, 0, len(keys))
	for _, k := range keys {
		evs := perBlock[k]
		// Events are already time-ordered per block because the driver
		// records in issue order; enforce stable order by time anyway.
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
		out = append(out, refBlock{k.alloc, k.block, evs})
	}
	return out
}

// referenceAnalyze classifies every transfer in events.
func referenceAnalyze(events []trace.Event) trace.Analysis {
	var a trace.Analysis
	for _, b := range referenceBlocks(events) {
		evs := b.evs
		for i, ev := range evs {
			switch ev.Kind {
			case trace.TransferH2D:
				a.TotalH2D += ev.Bytes
				a.TransferCount++
				if !h2dRequired(evs[i+1:]) {
					a.RedundantH2D += ev.Bytes
					a.RedundantCount++
				}
			case trace.TransferPeer:
				a.TotalPeer += ev.Bytes
				a.TransferCount++
				if !h2dRequired(evs[i+1:]) {
					a.RedundantPeer += ev.Bytes
					a.RedundantCount++
				}
			case trace.TransferD2H:
				a.TotalD2H += ev.Bytes
				a.TransferCount++
				if !d2hRequired(evs[i+1:]) {
					a.RedundantD2H += ev.Bytes
					a.RedundantCount++
				}
			}
		}
	}
	a.RequiredBytes = a.Total() - a.Redundant()
	return a
}

// h2dRequired reports whether data just moved to the GPU is consumed there
// before dying.
func h2dRequired(rest []trace.Event) bool {
	for _, ev := range rest {
		switch ev.Kind {
		case trace.GPURead:
			return true
		case trace.GPUWrite, trace.Discard, trace.ZeroFill:
			return false
		case trace.TransferD2H:
			// Bounced back without any GPU read: the H2D moved dead bytes.
			return false
		}
	}
	return false // never consumed
}

// d2hRequired reports whether data just swapped out to the host is consumed
// anywhere before dying. After the data returns to the GPU (TransferH2D),
// a GPU read consumes it; CPU reads consume it directly.
func d2hRequired(rest []trace.Event) bool {
	onHost := true
	for _, ev := range rest {
		switch ev.Kind {
		case trace.CPURead:
			if onHost {
				return true
			}
		case trace.CPUWrite:
			if onHost {
				return false
			}
		case trace.Discard, trace.ZeroFill:
			return false
		case trace.TransferH2D:
			onHost = false
		case trace.GPURead:
			if !onHost {
				return true
			}
		case trace.GPUWrite:
			if !onHost {
				return false
			}
		case trace.TransferD2H:
			// Swapped out again; keep scanning — the data is still alive,
			// now on the host again.
			onHost = true
		}
	}
	return false
}
