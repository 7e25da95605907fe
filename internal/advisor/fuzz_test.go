package advisor

import (
	"fmt"
	"reflect"
	"testing"

	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/trace/tracetest"
)

// handWritten holds the traces of the hand-written tests in
// advisor_test.go, in file order; they seed FuzzAdvise.
var handWritten = [][]trace.Event{
	{ev(1, trace.GPUWrite, 7, 0, 100), ev(2, trace.TransferD2H, 7, 0, 100),
		ev(3, trace.TransferH2D, 7, 0, 100), ev(4, trace.GPUWrite, 7, 0, 100)},
	{ev(1, trace.TransferH2D, 1, 0, 100), ev(2, trace.GPURead, 1, 0, 100),
		ev(3, trace.TransferD2H, 1, 0, 100), ev(4, trace.CPURead, 1, 0, 100)},
	{ev(1, trace.GPUWrite, 2, 0, 100), ev(2, trace.TransferD2H, 2, 0, 100)},
	{ev(1, trace.TransferH2D, 3, 0, 100), ev(2, trace.GPUWrite, 3, 0, 100), ev(3, trace.Discard, 3, 0, 100)},
	{ev(1, trace.TransferH2D, 1, 0, 50), ev(2, trace.GPUWrite, 1, 0, 50),
		ev(1, trace.TransferH2D, 2, 0, 500), ev(2, trace.GPUWrite, 2, 0, 500)},
	{ev(1, trace.TransferH2D, 1, 0, 100), ev(2, trace.GPUWrite, 1, 0, 100),
		ev(11, trace.TransferH2D, 1, 0, 100), ev(12, trace.GPUWrite, 1, 0, 100),
		ev(21, trace.TransferH2D, 1, 0, 100), ev(22, trace.GPUWrite, 1, 0, 100)},
	{ev(1, trace.TransferH2D, 9, 0, 10)},
}

// FuzzAdvise checks Analyze against the map-based reference on short
// traces with repeated timestamps, per-block time inversions and sparse,
// huge or negative IDs.
func FuzzAdvise(f *testing.F) {
	for _, evs := range handWritten {
		f.Add(tracetest.Encode(evs))
	}
	// Names odd allocations and leaves even ones to the default.
	resolve := func(id int) string {
		if id%2 == 0 {
			return ""
		}
		return fmt.Sprintf("buf%d", id)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		evs := tracetest.Decode(data)
		r := trace.NewRecorder()
		for _, ev := range evs {
			r.Record(ev)
		}
		for _, res := range []NameResolver{nil, resolve} {
			got, want := Analyze(r, res), referenceAnalyze(evs, res)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Analyze over %+v:\n got %+v\nwant %+v", evs, got, want)
			}
		}
	})
}
