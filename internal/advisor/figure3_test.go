package advisor_test

import (
	"reflect"
	"testing"

	"uvmdiscard/internal/advisor"
	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/workloads"
)

// TestFigure3AdviceMatchesReference runs Figure 3's six full-size runs,
// ResNet-53 training at batches 30–150 under UVM-opt (internal/experiments),
// and requires the advice each run's result carries to equal the map-based
// reference over the run's Events(), named as the result names them.
func TestFigure3AdviceMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("six full-size training runs")
	}
	p := workloads.DefaultPlatform()
	p.TraceRMT = true
	for _, batch := range []int{30, 45, 56, 85, 115, 150} {
		r, err := dnn.Train(p, workloads.UVMOpt, dnn.TrainConfig{Model: dnn.ResNet53(), Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		names := map[int]string{}
		for _, rec := range r.Advice.Recommendations {
			names[rec.AllocID] = rec.AllocName
		}
		want := advisor.ReferenceAnalyze(r.Trace.Events(), func(id int) string { return names[id] })
		if !reflect.DeepEqual(r.Advice, want) {
			t.Errorf("batch %d: advice\n%v\nreference\n%v", batch, r.Advice, want)
		}
	}
}
