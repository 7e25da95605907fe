package dnn

import (
	"testing"

	"uvmdiscard/internal/workloads"
)

// BenchmarkFigure3Largest times Figure 3's largest run, ResNet-53 training
// at batch 150 under UVM-opt on the default platform, untraced and with the
// RMT trace F3 records (Platform.TraceRMT): the gap between the two is what
// recording and classifying the trace costs over the simulation.
func BenchmarkFigure3Largest(b *testing.B) {
	for _, traced := range []bool{false, true} {
		name := "untraced"
		if traced {
			name = "traced"
		}
		b.Run(name, func(b *testing.B) {
			p := workloads.DefaultPlatform()
			p.TraceRMT = traced
			cfg := TrainConfig{Model: ResNet53(), Batch: 150}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := Train(p, workloads.UVMOpt, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if traced != (r.Analysis != nil) {
					b.Fatalf("traced %v, but the run's analysis is %v", traced, r.Analysis)
				}
			}
		})
	}
}
