// Package advisor diagnoses where a program should insert discard
// directives — the extension the paper sketches in its related work: "a
// compiler-assisted approach that detects the buffer reuse distance can be
// extended to diagnose the insertion of UvmDiscard API calls" (§8).
//
// Instead of compiler analysis, the advisor reads the driver's event trace
// from a profiling run. For every block the trace recorder finds *dead
// intervals* while it records (trace.AllocWaste): spans between the last
// consuming use of the block's contents (a read) and the next event that
// kills them (an overwrite, a discard that is already present, or the end
// of the program). A transfer inside a dead interval moved dead bytes;
// discarding the block at the interval's start would have prevented it.
// The advisor ranks the allocations' dead intervals into recommendations
// with the exact savings the discard would realize.
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

// Analyze ranks a profiling trace's dead intervals into discard
// recommendations. resolve may be nil.
func Analyze(rec *trace.Recorder, resolve NameResolver) *Report {
	a, waste := rec.Classify()
	return Rank(a, waste, resolve)
}

// Rank turns a recorder's classification (trace.Recorder.Classify) into
// recommendations ranked by wasted bytes; the analysis supplies the trace's
// traffic. resolve may be nil.
func Rank(a trace.Analysis, waste []trace.AllocWaste, resolve NameResolver) *Report {
	rep := &Report{TotalTraffic: a.TotalH2D + a.TotalD2H}
	for _, w := range waste {
		name := fmt.Sprintf("alloc-%d", w.Alloc)
		if resolve != nil {
			if n := resolve(w.Alloc); n != "" {
				name = n
			}
		}
		rep.Recommendations = append(rep.Recommendations, Recommendation{
			AllocID:          w.Alloc,
			AllocName:        name,
			Blocks:           w.Blocks,
			DeadIntervals:    w.Intervals,
			WastedBytes:      w.Wasted,
			AlreadyDiscarded: w.Discarded,
		})
		rep.TotalWasted += w.Wasted
	}
	sort.Slice(rep.Recommendations, func(i, j int) bool {
		if rep.Recommendations[i].WastedBytes != rep.Recommendations[j].WastedBytes {
			return rep.Recommendations[i].WastedBytes > rep.Recommendations[j].WastedBytes
		}
		return rep.Recommendations[i].AllocID < rep.Recommendations[j].AllocID
	})
	return rep
}
