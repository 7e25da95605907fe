package trace_test

import (
	"math"
	"reflect"
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
}

// FuzzAnalyze checks Analyze and the per-block grouping both analyzers
// share against the map-based reference, on short traces with repeated
// timestamps, per-block time inversions and sparse, huge or negative IDs.
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
		var blocks []refBlock
		r.ForEachBlock(func(alloc, block int, evs []trace.Event) {
			blocks = append(blocks, refBlock{alloc, block, slices.Clone(evs)})
		})
		if want := referenceBlocks(evs); !reflect.DeepEqual(blocks, want) {
			t.Fatalf("ForEachBlock over %+v:\n got %+v\nwant %+v", evs, blocks, want)
		}
		if got, want := trace.Analyze(r), referenceAnalyze(evs); got != want {
			t.Fatalf("Analyze over %+v:\n got %+v\nwant %+v", evs, got, want)
		}
	})
}

// Traces whose IDs the dense numbering cannot pack, or can only pack with
// negative offsets, group and classify like the reference without
// allocating by ID span.
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
		r := trace.NewRecorder()
		for _, ev := range evs {
			r.Record(ev)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var blocks []refBlock
		r.ForEachBlock(func(alloc, block int, evs []trace.Event) {
			blocks = append(blocks, refBlock{alloc, block, slices.Clone(evs)})
		})
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: grouping 1000 events allocated %d bytes", name, grew)
		}
		if want := referenceBlocks(evs); !reflect.DeepEqual(blocks, want) {
			t.Errorf("%s: ForEachBlock\n got %+v\nwant %+v", name, blocks, want)
		}
		if got, want := trace.Analyze(r), referenceAnalyze(evs); got != want {
			t.Errorf("%s: Analyze = %+v, want %+v", name, got, want)
		}
	}
}
