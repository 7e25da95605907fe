package uvmdiscard_test

// One testing.B benchmark per table and figure in the paper, plus the
// design-choice ablations from DESIGN.md §6. Each benchmark executes the
// corresponding experiment end to end and reports the headline quantity as
// a custom metric. Benchmarks run the quick (scaled-down) configurations
// so `go test -bench=.` completes in seconds; the full-scale reproduction
// with the paper's sizes is `go run ./cmd/paperbench`.

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"uvmdiscard/internal/experiments"
)

// benchExperiment runs one registered experiment per iteration at quick
// sizes.
func benchExperiment(b *testing.B, id string) *experiments.Table {
	b.Helper()
	return benchRun(b, id, experiments.Options{Quick: true})
}

// benchArmed is benchExperiment with a run control armed by a cancelable
// context, the way paperbench, the service and fleet workers run every
// experiment: it gates what polling the control costs the driver loop.
func benchArmed(b *testing.B, id string) {
	b.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	benchRun(b, id, experiments.Options{Quick: true, Ctx: ctx})
}

// benchRun runs experiment id with options o once per iteration and
// returns the last table.
func benchRun(b *testing.B, id string, o experiments.Options) *experiments.Table {
	b.Helper()
	e, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	var tbl *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tbl, err = e.Run(o)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

// reportCell parses a numeric cell like "5.66" or the second half of
// "0.51/0.52" and reports it as a benchmark metric.
func reportCell(b *testing.B, tbl *experiments.Table, rowName string, col int, metric string) {
	b.Helper()
	for _, row := range tbl.Rows {
		if row[0] != rowName {
			continue
		}
		cell := row[col]
		if i := strings.IndexByte(cell, '/'); i >= 0 {
			cell = cell[i+1:]
		}
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
		if err == nil {
			b.ReportMetric(v, metric)
		}
		return
	}
}

func BenchmarkTable1_VGG16GTX1070(b *testing.B) {
	benchExperiment(b, "T1")
}

func BenchmarkTable2_APICosts(b *testing.B) {
	tbl := benchExperiment(b, "T2")
	reportCell(b, tbl, "UvmDiscard", 4, "discard-128MB-µs")
}

func BenchmarkTable3_FIRRuntime(b *testing.B) {
	tbl := benchExperiment(b, "T3")
	reportCell(b, tbl, "UvmDiscard", 2, "norm-runtime-200%")
}

func BenchmarkTable4_FIRTraffic(b *testing.B) {
	tbl := benchExperiment(b, "T4")
	reportCell(b, tbl, "UvmDiscard", 2, "traffic-GB-200%")
}

func BenchmarkTable5_RadixRuntime(b *testing.B) {
	tbl := benchExperiment(b, "T5")
	reportCell(b, tbl, "UvmDiscard", 1, "norm-runtime-fits")
}

func BenchmarkTable6_RadixTraffic(b *testing.B) {
	tbl := benchExperiment(b, "T6")
	reportCell(b, tbl, "UvmDiscard", 2, "traffic-GB-200%")
}

func BenchmarkTable7_HashJoinRuntime(b *testing.B) {
	tbl := benchExperiment(b, "T7")
	reportCell(b, tbl, "UvmDiscard", 2, "norm-runtime-200%")
}

func BenchmarkTable8_HashJoinTraffic(b *testing.B) {
	tbl := benchExperiment(b, "T8")
	reportCell(b, tbl, "UvmDiscard", 2, "traffic-GB-200%")
}

func BenchmarkFigure3_ResNetRMT(b *testing.B) {
	tbl := benchExperiment(b, "F3")
	// Report the redundancy fraction of the largest batch.
	if len(tbl.Rows) > 0 {
		last := tbl.Rows[len(tbl.Rows)-1]
		reportCell(b, tbl, last[0], len(last)-1, "redundant-%")
	}
}

func BenchmarkFigure4_PrefetchThroughput(b *testing.B) {
	tbl := benchExperiment(b, "F4")
	if len(tbl.Rows) > 0 {
		last := tbl.Rows[len(tbl.Rows)-1]
		reportCell(b, tbl, last[0], 2, "pcie4-GBps")
	}
}

func BenchmarkFigure5_DLTraffic(b *testing.B) {
	benchExperiment(b, "F5")
}

func BenchmarkFigure6_DLThroughputPCIe4(b *testing.B) {
	benchExperiment(b, "F6")
}

func BenchmarkFigure7_DLThroughputPCIe3(b *testing.B) {
	benchExperiment(b, "F7")
}

func BenchmarkAblation_EvictionOrder(b *testing.B) {
	benchExperiment(b, "A1")
}

func BenchmarkAblation_ImmediateReclaim(b *testing.B) {
	benchExperiment(b, "A2")
}

func BenchmarkAblation_PreparedTracking(b *testing.B) {
	benchExperiment(b, "A3")
}

func BenchmarkAblation_Granularity(b *testing.B) {
	benchExperiment(b, "A4")
}

func BenchmarkExtension_CoherentRemote(b *testing.B) {
	benchExperiment(b, "X1")
}

func BenchmarkExtension_InferenceAdvice(b *testing.B) {
	benchExperiment(b, "X2")
}

func BenchmarkExtension_MultiGPUPipeline(b *testing.B) {
	benchExperiment(b, "X3")
}

func BenchmarkExtension_FreeVsDiscard(b *testing.B) {
	benchExperiment(b, "X4")
}

func BenchmarkExtension_RecomputeVsDiscard(b *testing.B) {
	benchExperiment(b, "X5")
}

func BenchmarkAblation_FaultBatch(b *testing.B) {
	benchExperiment(b, "A5")
}

func BenchmarkExtension_DataParallel(b *testing.B) {
	benchExperiment(b, "X6")
}

func BenchmarkExtension_GraphTraversal(b *testing.B) {
	benchExperiment(b, "X7")
}

func BenchmarkArmed_Table1_VGG16GTX1070(b *testing.B) {
	benchArmed(b, "T1")
}

func BenchmarkArmed_Table3_FIRRuntime(b *testing.B) {
	benchArmed(b, "T3")
}

func BenchmarkArmed_Figure5_DLTraffic(b *testing.B) {
	benchArmed(b, "F5")
}
