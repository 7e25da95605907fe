package trace_test

import (
	"math"
	"runtime"
	"slices"
	"testing"

	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/trace/tracetest"
)

func e(t sim.Time, k trace.Kind, alloc, block int, bytes uint64) trace.Event {
	return trace.Event{T: t, Kind: k, Alloc: alloc, Block: block, Bytes: bytes}
}

// handWritten holds the traces of the hand-written tests in trace_test.go,
// in file order; they seed FuzzAnalyze.
var handWritten = [][]trace.Event{
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.GPURead, 1, 0, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.GPUWrite, 1, 0, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.Discard, 1, 0, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100)},
	{e(1, trace.GPUWrite, 1, 0, 100), e(2, trace.TransferD2H, 1, 0, 100),
		e(3, trace.TransferH2D, 1, 0, 100), e(4, trace.GPUWrite, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.CPURead, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.TransferH2D, 1, 0, 100), e(3, trace.GPURead, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.Discard, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.CPUWrite, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.ZeroFill, 1, 0, 100)},
	{e(1, trace.TransferD2H, 1, 0, 100), e(2, trace.TransferH2D, 1, 0, 100), e(3, trace.GPURead, 1, 0, 100),
		e(4, trace.TransferD2H, 1, 0, 100), e(5, trace.CPURead, 1, 0, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(1, trace.TransferH2D, 1, 1, 100),
		e(2, trace.GPURead, 1, 0, 100), e(2, trace.GPUWrite, 1, 1, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.GPUWrite, 1, 0, 100),
		e(3, trace.TransferH2D, 1, 1, 100), e(4, trace.GPURead, 1, 1, 100)},
	{e(5, trace.GPURead, 1, 0, 100), e(1, trace.TransferH2D, 1, 0, 100)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.GPURead, 1, 0, 100),
		e(3, trace.Discard, 2, 1, 50), e(4, trace.TransferPeer, 3, 2, 75)},
	{e(1, trace.TransferH2D, 1, 0, 100), e(2, trace.TransferD2H, 1, 0, 100),
		e(3, trace.TransferH2D, 1, 0, 100), e(4, trace.GPURead, 1, 0, 100)},
}

// FuzzAnalyze checks the recorder's streamed classification against the
// map-based reference, on short traces with repeated timestamps, per-block
// time inversions (which Analyze classifies again from the log) and sparse,
// huge or negative IDs. Reading the result must change nothing.
func FuzzAnalyze(f *testing.F) {
	for _, evs := range handWritten {
		f.Add(tracetest.Encode(evs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := tracetest.Decode(data)
		r := trace.NewRecorder()
		for _, ev := range evs {
			r.Record(ev)
		}
		if got := r.Events(); !slices.Equal(got, evs) {
			t.Fatalf("Events() = %+v, recorded %+v", got, evs)
		}
		got, want := trace.Analyze(r), referenceAnalyze(evs)
		if got != want {
			t.Fatalf("Analyze over %+v:\n got %+v\nwant %+v", evs, got, want)
		}
		if again := trace.Analyze(r); again != got {
			t.Fatalf("a second Analyze over %+v read %+v, the first %+v", evs, again, got)
		}
		if after := r.Events(); !slices.Equal(after, evs) {
			t.Fatalf("Events() after Analyze = %+v, recorded %+v", after, evs)
		}
	})
}

// Traces whose IDs the dense block index cannot hold, or holds only in
// part, record exactly and classify like the reference, and recording them
// allocates nothing in proportion to the IDs' span.
func TestForEachBlockExtremeIDs(t *testing.T) {
	kinds := []trace.Kind{trace.TransferH2D, trace.GPURead, trace.TransferD2H, trace.CPURead, trace.GPUWrite}
	for name, ids := range map[string][][2]int{
		"negative dense":   {{-2, -1}, {-1, 0}, {-2, -1}, {-1, 1}},
		"huge allocs":      {{math.MaxInt / 2, 0}, {0, 0}, {math.MaxInt / 2, 1}},
		"extreme allocs":   {{math.MinInt, 0}, {math.MaxInt, 0}, {math.MinInt, 0}},
		"extreme blocks":   {{3, math.MinInt}, {3, math.MaxInt}, {3, 0}, {3, math.MaxInt}},
		"sparse blocks":    {{0, 0}, {0, math.MaxInt / 2}, {1, 5}, {0, 0}},
		"clustered at max": {{0, math.MaxInt - 1}, {0, math.MaxInt}, {0, math.MaxInt - 1}},
	} {
		var evs []trace.Event
		for i := 0; i < 1000; i++ {
			id := ids[i%len(ids)]
			evs = append(evs, e(sim.Time(i%7), kinds[i%len(kinds)], id[0], id[1], 100))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r := trace.NewRecorder()
		for _, ev := range evs {
			r.Record(ev)
		}
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: recording 1000 events allocated %d bytes", name, grew)
		}
		if got := r.Events(); !slices.Equal(got, evs) {
			t.Errorf("%s: Events() differs from what was recorded", name)
		}
		if got, want := trace.Analyze(r), referenceAnalyze(evs); got != want {
			t.Errorf("%s: Analyze = %+v, want %+v", name, got, want)
		}
	}
}

// A pair that first arrives outside the dense block index's budget keeps
// its one block after the index has grown to cover it: its H2D is still
// required by its later GPURead.
func TestSparsePairKeepsItsBlock(t *testing.T) {
	evs := []trace.Event{e(0, trace.TransferH2D, 0, 2000, 100)}
	for k := 0; k < 1100; k++ { // grow the budget past block 2000
		evs = append(evs, e(sim.Time(k), trace.GPUWrite, 1, k, 100))
	}
	evs = append(evs,
		e(2000, trace.GPUWrite, 0, 2001, 100), // grows allocation 0's dense row past 2000
		e(2001, trace.GPURead, 0, 2000, 100))
	r := trace.NewRecorder()
	for _, ev := range evs {
		r.Record(ev)
	}
	if got := r.Events(); !slices.Equal(got, evs) {
		t.Fatal("Events() differs from what was recorded")
	}
	got, want := trace.Analyze(r), referenceAnalyze(evs)
	if got != want || got.RedundantH2D != 0 {
		t.Errorf("Analyze = %+v, want %+v with the H2D required", got, want)
	}
}

// Kinds, times and sizes at the edges of their types come back from
// Events() exactly as recorded, whether or not they fit the log's narrow
// fields, and unknown kinds classify like the reference: not at all.
func TestRecordKeepsExtremeValues(t *testing.T) {
	kinds := []trace.Kind{math.MinInt, math.MinInt32, math.MinInt32 + 1, -1, trace.TransferH2D,
		trace.GPURead, math.MaxInt32, math.MaxInt32 + 1, math.MaxInt, trace.TransferD2H}
	times := []sim.Time{math.MinInt64, -1, 0, 1, math.MaxInt64}
	sizes := []uint64{0, 1, math.MaxUint32 + 1, math.MaxUint64}
	var evs []trace.Event
	for i := 0; i < 3*len(kinds)*len(times); i++ {
		evs = append(evs, e(times[i%len(times)], kinds[i%len(kinds)], i%3, i%2, sizes[i%len(sizes)]))
	}
	r := trace.NewRecorder()
	for _, ev := range evs {
		r.Record(ev)
	}
	if got := r.Events(); !slices.Equal(got, evs) {
		t.Fatalf("Events() = %+v,\nrecorded %+v", got, evs)
	}
	if got, want := trace.Analyze(r), referenceAnalyze(evs); got != want {
		t.Errorf("Analyze = %+v, want %+v", got, want)
	}
}
