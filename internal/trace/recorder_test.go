package trace

import (
	"bytes"
	"slices"
	"testing"

	"uvmdiscard/internal/sim"
)

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

// Recording never copies: 100 000 events cost one allocation per chunk and
// nothing else.
func TestRecordAllocsPerChunk(t *testing.T) {
	evs := syntheticTrace(100_000)
	chunks := (len(evs) + chunkLen - 1) / chunkLen
	r := NewRecorder()
	allocs := testing.AllocsPerRun(3, func() {
		r.Reset()
		for _, ev := range evs {
			r.Record(ev)
		}
	})
	if allocs > float64(chunks) {
		t.Errorf("recording %d events allocated %.0f times, want at most %d (one per chunk)",
			len(evs), allocs, chunks)
	}
}

// benchEvents is about the trace of one ResNet-53 training run at batch 150
// (581 137 events).
const benchEvents = 500_000

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

func BenchmarkAnalyze(b *testing.B) {
	r := record(syntheticTrace(benchEvents))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		analysisSink = Analyze(r)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchEvents), "ns/event")
}
