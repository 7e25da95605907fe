package trace

import (
	"bytes"
	"slices"
	"testing"

	"uvmdiscard/internal/sim"
)

// syntheticBlocks is the number of blocks syntheticTrace visits.
const syntheticBlocks = 16 * 64

// syntheticTrace returns n events shaped like a training run's trace: 16
// allocations of 64 blocks visited round-robin, each visit a few of
// migrate-in, read, overwrite, evict, zero-fill and host read. Times are
// distinct, so a misplaced event shows.
func syntheticTrace(n int) []Event {
	kinds := [...]Kind{TransferH2D, GPURead, GPUWrite, TransferD2H, ZeroFill, CPURead}
	evs := make([]Event, n)
	for i := range evs {
		visit := i / 3
		evs[i] = Event{
			T:     sim.Time(i),
			Kind:  kinds[(i+visit)%len(kinds)],
			Alloc: visit / 64 % 16,
			Block: visit % 64,
			Bytes: 2 << 20,
		}
	}
	return evs
}

func record(evs []Event) *Recorder {
	r := NewRecorder()
	for _, ev := range evs {
		r.Record(ev)
	}
	return r
}

// A trace longer than two chunks survives Events, a JSON round trip, and a
// Reset followed by recording again.
func TestRecorderCrossesChunks(t *testing.T) {
	evs := syntheticTrace(2*chunkLen + 3)
	r := record(evs)
	got := r.Events()
	if !slices.Equal(got, evs) {
		t.Fatal("Events differs from what was recorded")
	}
	got[chunkLen].Bytes++
	if r.Events()[chunkLen] != evs[chunkLen] {
		t.Error("Events shares storage with the recorder")
	}

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(back.Events(), evs) {
		t.Error("JSON round trip changed the events")
	}
	if Analyze(back) != Analyze(r) {
		t.Error("analysis differs after round trip")
	}

	r.Reset()
	if r.Len() != 0 || len(r.Events()) != 0 || Analyze(r) != (Analysis{}) {
		t.Fatal("Reset left events behind")
	}
	again := evs[chunkLen-1 : 2*chunkLen+1]
	for _, ev := range again {
		r.Record(ev)
	}
	if r.Len() != len(again) || !slices.Equal(r.Events(), again) {
		t.Error("recording after Reset lost or reordered events")
	}
}

// Recording never copies and allocates nothing per event: 100 000 events
// over 1 024 blocks cost one allocation per chunk plus the growth of the
// per-block state, at most one allocation per block, and recording the
// same blocks' trace at twice the length adds only the extra chunks.
func TestRecordAllocsPerChunk(t *testing.T) {
	allocs := func(n int) (float64, int) {
		evs := syntheticTrace(n)
		r := NewRecorder()
		return testing.AllocsPerRun(3, func() {
			r.Reset()
			for _, ev := range evs {
				r.Record(ev)
			}
		}), (n + chunkLen - 1) / chunkLen
	}
	got, chunks := allocs(100_000)
	if got > float64(chunks+syntheticBlocks) {
		t.Errorf("recording 100000 events allocated %.0f times, want at most %d for the chunks plus %d for the blocks",
			got, chunks, syntheticBlocks)
	}
	got2, chunks2 := allocs(200_000)
	if got2-got > float64(chunks2-chunks) {
		t.Errorf("recording twice the events over the same blocks allocated %.0f times against %.0f, want at most %d more (the chunks)",
			got2, got, chunks2-chunks)
	}
}

// benchEvents is about the trace of one ResNet-53 training run at batch 150
// (581 137 events).
const benchEvents = 500_000

// BenchmarkRecord measures recording, which classifies each event as it
// stores it, per event.
func BenchmarkRecord(b *testing.B) {
	evs := syntheticTrace(benchEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		record(evs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(evs)), "ns/event")
}

var analysisSink Analysis

// BenchmarkAnalyze measures reading the classification of a recorded trace.
// Every block of syntheticTrace is in time order, so the read visits the
// blocks, not the events: ns/block is the figure to watch, and ns/event
// falls as the trace grows.
func BenchmarkAnalyze(b *testing.B) {
	r := record(syntheticTrace(benchEvents))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysisSink = Analyze(r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*syntheticBlocks), "ns/block")
}
