package trace

import (
	"bytes"
	"strings"
	"testing"

	"uvmdiscard/internal/sim"
)

func ev(t sim.Time, k Kind, block int) Event {
	return Event{T: t, Kind: k, Alloc: 1, Block: block, Bytes: 100}
}

func TestNilRecorderSafe(t *testing.T) {
	var r *Recorder
	r.Record(ev(0, GPURead, 0)) // no panic
	if r.Len() != 0 || r.Events() != nil {
		t.Error("nil recorder should be empty")
	}
	a := Analyze(r)
	if a.Total() != 0 || a.RedundantFraction() != 0 {
		t.Error("nil recorder analysis should be empty")
	}
}

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, GPURead, 0))
	if r.Len() != 2 {
		t.Errorf("len = %d", r.Len())
	}
	r.Reset()
	if r.Len() != 0 {
		t.Error("reset failed")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{TransferH2D, TransferD2H, GPURead, GPUWrite, CPURead,
		CPUWrite, TransferPeer, Discard, ZeroFill}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Errorf("kind %d name %q empty or duplicate", int(k), s)
		}
		seen[s] = true
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind should stringify")
	}
}

// The canonical required pattern: data goes to the GPU and is read there.
func TestH2DRequiredWhenRead(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, GPURead, 0))
	a := Analyze(r)
	if a.RedundantH2D != 0 || a.TotalH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
	if a.RequiredBytes != 100 {
		t.Errorf("required = %d", a.RequiredBytes)
	}
}

// Figure 2's pattern: the buffer is migrated to the GPU but then only
// overwritten — the transfer was redundant.
func TestH2DRedundantWhenOverwritten(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, GPUWrite, 0))
	a := Analyze(r)
	if a.RedundantH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

func TestH2DRedundantWhenDiscarded(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, Discard, 0))
	a := Analyze(r)
	if a.RedundantH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

func TestH2DRedundantWhenNeverTouched(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	a := Analyze(r)
	if a.RedundantH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

// The ping-pong in Figure 2: evicted to CPU, migrated back, then written —
// both transfers are redundant.
func TestPingPongBothRedundant(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, GPUWrite, 0))    // short-lived data written
	r.Record(ev(2, TransferD2H, 0)) // evicted under pressure
	r.Record(ev(3, TransferH2D, 0)) // migrated back
	r.Record(ev(4, GPUWrite, 0))    // overwritten with new data
	a := Analyze(r)
	if a.RedundantD2H != 100 || a.RedundantH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
	if a.TransferCount != 2 || a.RedundantCount != 2 {
		t.Errorf("counts = %d/%d", a.TransferCount, a.RedundantCount)
	}
}

// Eviction of data that the CPU later reads is required.
func TestD2HRequiredWhenCPUReads(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, CPURead, 0))
	a := Analyze(r)
	if a.RedundantD2H != 0 {
		t.Errorf("analysis = %+v", a)
	}
}

// Eviction of data that later returns to the GPU and is read there is also
// required (it round-trips usefully).
func TestD2HRequiredWhenReadBackOnGPU(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, TransferH2D, 0))
	r.Record(ev(3, GPURead, 0))
	a := Analyze(r)
	if a.RedundantD2H != 0 {
		t.Errorf("D2H should be required: %+v", a)
	}
	if a.RedundantH2D != 0 {
		t.Errorf("H2D should be required: %+v", a)
	}
}

func TestD2HRedundantWhenDiscarded(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, Discard, 0))
	a := Analyze(r)
	if a.RedundantD2H != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

func TestD2HRedundantWhenCPUOverwrites(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, CPUWrite, 0))
	a := Analyze(r)
	if a.RedundantD2H != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

// A GPU write after the data has been swapped out does not make the D2H
// redundant by itself — the GPU write targets fresh memory; the host copy
// may still be read later.
func TestD2HSurvivesUnrelatedGPUWrite(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, ZeroFill, 0)) // block repurposed on GPU with fresh zeros
	a := Analyze(r)
	// ZeroFill kills the old data: redundant.
	if a.RedundantD2H != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

// Double swap-out: D2H, back H2D, D2H again, then CPU read — all required.
func TestDoubleSwapOutRequired(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferD2H, 0))
	r.Record(ev(2, TransferH2D, 0))
	r.Record(ev(3, GPURead, 0))
	r.Record(ev(4, TransferD2H, 0))
	r.Record(ev(5, CPURead, 0))
	a := Analyze(r)
	if a.Redundant() != 0 {
		t.Errorf("analysis = %+v", a)
	}
	if a.TransferCount != 3 {
		t.Errorf("transfer count = %d", a.TransferCount)
	}
}

// Blocks are classified independently.
func TestBlocksIndependent(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(1, TransferH2D, 1))
	r.Record(ev(2, GPURead, 0))
	r.Record(ev(2, GPUWrite, 1))
	a := Analyze(r)
	if a.TotalH2D != 200 || a.RedundantH2D != 100 {
		t.Errorf("analysis = %+v", a)
	}
}

func TestRedundantFraction(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, GPUWrite, 0))
	r.Record(ev(3, TransferH2D, 1))
	r.Record(ev(4, GPURead, 1))
	a := Analyze(r)
	if a.RedundantFraction() != 0.5 {
		t.Errorf("fraction = %v", a.RedundantFraction())
	}
	if !strings.Contains(a.String(), "50.0%") {
		t.Errorf("String() = %q", a.String())
	}
}

// Out-of-order recording by time is tolerated (stable sort by T).
func TestAnalyzeSortsByTime(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(5, GPURead, 0))
	r.Record(ev(1, TransferH2D, 0))
	a := Analyze(r)
	if a.RedundantH2D != 0 {
		t.Errorf("analysis = %+v", a)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRecorder()
	r.Record(ev(1, TransferH2D, 0))
	r.Record(ev(2, GPURead, 0))
	r.Record(Event{T: 3, Kind: Discard, Alloc: 2, Block: 1, Bytes: 50})
	r.Record(Event{T: 4, Kind: TransferPeer, Alloc: 3, Block: 2, Bytes: 75})

	var buf bytes.Buffer
	if err := WriteJSON(&buf, r); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"kind":"h2d"`) {
		t.Errorf("dump not readable: %s", buf.String())
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != r.Len() {
		t.Fatalf("round trip lost events: %d vs %d", back.Len(), r.Len())
	}
	for i, want := range r.Events() {
		if back.Events()[i] != want {
			t.Errorf("event %d = %+v, want %+v", i, back.Events()[i], want)
		}
	}
	// Analyses agree.
	if Analyze(back) != Analyze(r) {
		t.Error("analysis differs after round trip")
	}
}

func TestReadJSONErrors(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"kind":"nope"}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{bad json`)); err == nil {
		t.Error("malformed json accepted")
	}
	rec, err := ReadJSON(strings.NewReader(""))
	if err != nil || rec.Len() != 0 {
		t.Error("empty dump should parse to empty recorder")
	}
}
