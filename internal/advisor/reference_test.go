package advisor

import (
	"fmt"
	"sort"

	"uvmdiscard/internal/trace"
)

// The map-based advisor that Analyze replaced, kept as the oracle for
// FuzzAdvise: it regroups the events into a map of per-block slices and
// aggregates each allocation through a map.

// referenceAnalyze scans events and produces discard recommendations.
// resolve may be nil.
func referenceAnalyze(events []trace.Event, resolve NameResolver) *Report {
	rep := &Report{}
	if len(events) == 0 {
		return rep
	}
	type blockKey struct{ alloc, block int }
	perBlock := map[blockKey][]trace.Event{}
	for _, ev := range events {
		k := blockKey{ev.Alloc, ev.Block}
		perBlock[k] = append(perBlock[k], ev)
		if ev.Kind == trace.TransferH2D || ev.Kind == trace.TransferD2H {
			rep.TotalTraffic += ev.Bytes
		}
	}

	perAlloc := map[int]*refAllocAgg{}
	for k, evs := range perBlock {
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].T < evs[j].T })
		wasted, intervals, sawDiscard := refDeadIntervalWaste(evs)
		if sawDiscard {
			a := refEnsureAgg(perAlloc, k.alloc)
			a.discarded = true
		}
		if wasted == 0 {
			continue
		}
		a := refEnsureAgg(perAlloc, k.alloc)
		a.blocks[k.block] = true
		a.intervals += intervals
		a.wasted += wasted
	}

	for id, a := range perAlloc {
		if a.wasted == 0 {
			continue
		}
		name := fmt.Sprintf("alloc-%d", id)
		if resolve != nil {
			if n := resolve(id); n != "" {
				name = n
			}
		}
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			AllocID:          id,
			AllocName:        name,
			Blocks:           len(a.blocks),
			DeadIntervals:    a.intervals,
			WastedBytes:      a.wasted,
			AlreadyDiscarded: a.discarded,
		})
		rep.TotalWasted += a.wasted
	}
	sort.Slice(rep.Recommendations, func(i, j int) bool {
		if rep.Recommendations[i].WastedBytes != rep.Recommendations[j].WastedBytes {
			return rep.Recommendations[i].WastedBytes > rep.Recommendations[j].WastedBytes
		}
		return rep.Recommendations[i].AllocID < rep.Recommendations[j].AllocID
	})
	return rep
}

type refAllocAgg struct {
	blocks    map[int]bool
	intervals int
	wasted    uint64
	discarded bool
}

func refEnsureAgg(m map[int]*refAllocAgg, id int) *refAllocAgg {
	a := m[id]
	if a == nil {
		a = &refAllocAgg{blocks: map[int]bool{}}
		m[id] = a
	}
	return a
}

// refDeadIntervalWaste walks one block's event timeline and accumulates the
// transfer bytes that happened while the block's contents were dead: after
// the last read of a generation of data, once the next write/discard
// proves no further read was coming.
func refDeadIntervalWaste(evs []trace.Event) (wasted uint64, intervals int, sawDiscard bool) {
	var pendingDead uint64 // transfer bytes since the last consuming read
	closeInterval := func() {
		if pendingDead > 0 {
			wasted += pendingDead
			intervals++
		}
		pendingDead = 0
	}
	for _, ev := range evs {
		switch ev.Kind {
		case trace.GPURead, trace.CPURead:
			// The data was consumed: transfers so far were useful.
			pendingDead = 0
		case trace.GPUWrite, trace.CPUWrite, trace.ZeroFill:
			// Previous contents died without the pending transfers being
			// read: they were wasted.
			closeInterval()
		case trace.Discard:
			sawDiscard = true
			closeInterval()
		case trace.TransferH2D, trace.TransferD2H:
			pendingDead += ev.Bytes
		}
	}
	// Data never consumed again before the program ended.
	closeInterval()
	return wasted, intervals, sawDiscard
}
