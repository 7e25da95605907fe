// Package advisor diagnoses where a program should insert discard
// directives — the extension the paper sketches in its related work: "a
// compiler-assisted approach that detects the buffer reuse distance can be
// extended to diagnose the insertion of UvmDiscard API calls" (§8).
//
// Instead of compiler analysis, the advisor consumes the driver's event
// trace from a profiling run. For every block it finds *dead intervals*:
// spans between the last consuming use of the block's contents (a read)
// and the next event that kills them (an overwrite, a discard that is
// already present, or the end of the program). A transfer inside a dead
// interval moved dead bytes; discarding the block at the interval's start
// would have prevented it. Dead intervals are aggregated per allocation
// into ranked recommendations with the exact savings the discard would
// realize.
package advisor

import (
	"fmt"
	"sort"
	"strings"

	"uvmdiscard/internal/trace"
)

// Recommendation is one suggested discard site, aggregated per allocation.
type Recommendation struct {
	// AllocID identifies the buffer.
	AllocID int
	// AllocName is the buffer's debug name when the caller supplies a
	// resolver; otherwise "alloc-<id>".
	AllocName string
	// Blocks is how many distinct 2 MiB blocks of the allocation have at
	// least one dead interval.
	Blocks int
	// DeadIntervals counts dead intervals across the allocation.
	DeadIntervals int
	// WastedBytes is the transfer volume that occurred inside dead
	// intervals — what the suggested discards would have eliminated.
	WastedBytes uint64
	// AlreadyDiscarded reports whether the program already issues some
	// discards on this buffer (partial coverage).
	AlreadyDiscarded bool
}

// Report is the advisor's output.
type Report struct {
	// Recommendations, ranked by wasted bytes, largest first.
	Recommendations []Recommendation
	// TotalTraffic is the trace's transfer volume.
	TotalTraffic uint64
	// TotalWasted is the sum of wasted bytes over all recommendations.
	TotalWasted uint64
}

// Potential returns the fraction of the trace's traffic the suggested
// discards would eliminate.
func (r *Report) Potential() float64 {
	if r.TotalTraffic == 0 {
		return 0
	}
	return float64(r.TotalWasted) / float64(r.TotalTraffic)
}

// String renders the report as a ranked table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "discard advisor: %.2f GB of %.2f GB traffic (%.0f%%) moved dead data\n",
		float64(r.TotalWasted)/1e9, float64(r.TotalTraffic)/1e9, 100*r.Potential())
	for i, rec := range r.Recommendations {
		marker := ""
		if rec.AlreadyDiscarded {
			marker = " (partially discarded already)"
		}
		fmt.Fprintf(&b, "%2d. %-20s %8.3f GB wasted across %d blocks, %d dead intervals%s\n",
			i+1, rec.AllocName, float64(rec.WastedBytes)/1e9,
			rec.Blocks, rec.DeadIntervals, marker)
	}
	if len(r.Recommendations) == 0 {
		b.WriteString("no redundant transfers found: every migrated byte was consumed\n")
	}
	return b.String()
}

// NameResolver maps an allocation ID to a human-readable name.
type NameResolver func(allocID int) string

// Analyze scans a profiling trace and produces discard recommendations.
// resolve may be nil.
func Analyze(rec *trace.Recorder, resolve NameResolver) *Report {
	var s Scan
	rec.ForEachBlock(func(alloc, _ int, evs []trace.Event) { s.Block(alloc, evs) })
	return s.Report(resolve)
}

// Scan accumulates the advisor's analysis one block at a time: Analyze is
// a Scan over every block of a trace. Grouping the events by block is most
// of the cost, so a caller with its own per-block analysis (the RMT
// classifier, trace.Analysis.AddBlock) feeds both from one
// Recorder.ForEachBlock walk. The zero value is an empty scan.
type Scan struct {
	traffic uint64
	aggs    []allocAgg
}

// Block adds one block's time-ordered events, as ForEachBlock hands them
// over: in ascending (alloc, block) order, so the allocation being summed
// is always the last one.
func (s *Scan) Block(alloc int, evs []trace.Event) {
	if len(s.aggs) == 0 || s.aggs[len(s.aggs)-1].id != alloc {
		s.aggs = append(s.aggs, allocAgg{id: alloc})
	}
	a := &s.aggs[len(s.aggs)-1]
	wasted, intervals, sawDiscard := deadIntervalWaste(evs)
	for _, ev := range evs {
		if ev.Kind == trace.TransferH2D || ev.Kind == trace.TransferD2H {
			s.traffic += ev.Bytes
		}
	}
	a.discarded = a.discarded || sawDiscard
	if wasted > 0 {
		a.blocks++
		a.intervals += intervals
		a.wasted += wasted
	}
}

// Report ranks the scanned blocks' recommendations. resolve may be nil.
func (s *Scan) Report(resolve NameResolver) *Report {
	rep := &Report{TotalTraffic: s.traffic}
	for _, a := range s.aggs {
		if a.wasted == 0 {
			continue
		}
		name := fmt.Sprintf("alloc-%d", a.id)
		if resolve != nil {
			if n := resolve(a.id); n != "" {
				name = n
			}
		}
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			AllocID:          a.id,
			AllocName:        name,
			Blocks:           a.blocks,
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

type allocAgg struct {
	id                int
	blocks, intervals int
	wasted            uint64
	discarded         bool
}

// deadIntervalWaste walks one block's event timeline and accumulates the
// transfer bytes that happened while the block's contents were dead: after
// the last read of a generation of data, once the next write/discard
// proves no further read was coming.
func deadIntervalWaste(evs []trace.Event) (wasted uint64, intervals int, sawDiscard bool) {
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
