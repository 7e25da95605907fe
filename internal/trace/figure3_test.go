package trace_test

import (
	"testing"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/trace"
	"uvmdiscard/internal/workloads"
)

// figure3Batches are Figure 3's full-size batches (internal/experiments).
var figure3Batches = []int{30, 45, 56, 85, 115, 150}

// TestFigure3RunsMatchReference runs Figure 3's six full-size runs,
// ResNet-53 training under UVM-opt, and requires each run's streamed
// analysis to equal the map-based reference over the run's Events(). Some
// blocks of these traces receive events out of time order, so the test
// also runs the correction Classify makes for them on real traces.
func TestFigure3RunsMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("six full-size training runs")
	}
	p := workloads.DefaultPlatform()
	p.TraceRMT = true
	late := 0
	for _, batch := range figure3Batches {
		r, err := dnn.Train(p, workloads.UVMOpt, dnn.TrainConfig{Model: dnn.ResNet53(), Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		evs := r.Trace.Events()
		if got, want := *r.Analysis, referenceAnalyze(evs); got != want {
			t.Errorf("batch %d: streamed analysis %+v, reference %+v", batch, got, want)
		}
		n := lateBlocks(evs)
		t.Logf("batch %d: %d events, %d blocks recorded out of time order", batch, len(evs), n)
		late += n
	}
	if late == 0 {
		t.Error("no block was recorded out of time order, so the correction for such blocks went untested")
	}
}

// lateBlocks counts the blocks that receive an event with an earlier time
// than the block's event before it.
func lateBlocks(evs []trace.Event) int {
	last := map[[2]int]sim.Time{}
	late := map[[2]int]bool{}
	for _, ev := range evs {
		k := [2]int{ev.Alloc, ev.Block}
		if t, ok := last[k]; ok && ev.T < t {
			late[k] = true
		}
		last[k] = ev.T
	}
	return len(late)
}
