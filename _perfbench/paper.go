package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"uvmdiscard/internal/experiments"
)

// runPaper is paper_full: every artifact at full size, serially, through
// experiments.All and Experiment.Run with a cancelable context, which is
// what `paperbench -j 1` does. An op is one artifact: run plus
// Table.String. It touches no service, fleet, jsonl or checkpoint code.
//
// Each artifact's time is its median over the run's passes, and a pass
// time is the sum of those medians: a burst of interference from outside
// skews one pass of an artifact, not the run. Throughput is artifacts per
// second over the pass time. Latency percentiles over the artifact mix
// would jump between neighbouring artifacts, so the one latency sample of
// a run is the pass time, what a `make repro` user waits for.
//
// The heap is collected before each artifact, outside its timing, so an
// artifact never pays for the garbage of the one the seed ordered before
// it. After each artifact, outside its timing, the calibration kernel is
// sampled once per calEveryMS the artifact took (calib.go), so the samples
// spread over the pass as its time does. Peak RSS is the median over passes of each pass's
// VmHWM, taken from a heap returned to the OS at the start of the pass.
func runPaper(e *env, tr *tracer, layer map[string]float64) (e2e, error) {
	var r e2e
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := experiments.Options{Ctx: ctx}

	// Set-up: list the artifacts and warm every one of them up once at
	// quick size, so code paths and the heap are warm before the clock.
	for i := 0; i < e.setups; i++ {
		s := time.Now()
		for _, x := range experiments.All() {
			tbl, err := x.Run(experiments.Options{Ctx: ctx, Quick: true})
			e.tally.add(err == nil && e.checkOutput("paper-quick/"+x.ID, tbl.String()), "paper warm-up "+x.ID)
		}
		r.setupS = append(r.setupS, time.Since(s).Seconds())
	}

	passes := paperPasses(e.seconds)
	cal := e.startCal()
	perID := map[string][]float64{}
	var rss []float64
	for p := 0; p < passes; p++ {
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return r, err
		}
		ps := tr.start()
		for _, x := range paperOrder(e.seed, p) {
			op := fmt.Sprintf("pass%d/%s", p, x.ID)
			gs := tr.start()
			runtime.GC()
			tr.end("paper.gc", op, "paper.pass", gs)
			s := time.Now()
			tbl, err := x.Run(opts)
			tr.end("paper."+x.ID, op, "paper.pass", s)
			out := ""
			if err == nil {
				fs := tr.start()
				out = tbl.String()
				tr.end("paper.format", op, "paper.pass", fs)
			}
			took := ms(time.Since(s))
			perID[x.ID] = append(perID[x.ID], took)
			e.tally.add(err == nil && e.checkOutput("paper/"+x.ID, out), fmt.Sprintf("paper %s: %v", x.ID, err))
			cs := tr.start()
			cal.sample(1 + int(took/calEveryMS))
			tr.end("paper.cal", op, "paper.pass", cs)
		}
		tr.end("paper.pass", fmt.Sprintf("pass%d", p), "", ps)
		peak, err := peakRSSMB(os.Getpid())
		if err != nil {
			return r, err
		}
		rss = append(rss, peak)
	}
	var passMS float64
	for _, d := range perID {
		passMS += median(d)
	}
	r.latMS = []float64{passMS}
	r.opsPerSec = float64(len(perID)) / (passMS / 1e3)
	r.rssMB = median(rss)
	r.calMS = median(cal.samplesMS)
	if layer == nil {
		return r, nil
	}

	// Per-artifact mean time, formatting per pass, and the reconciliation:
	// the artifact, format and collection spans should cover the whole pass.
	var covered float64
	for _, x := range experiments.All() {
		d := tr.durMS("paper." + x.ID)
		layer["paper."+x.ID+"_ms"] = mean(d)
		covered += sum(d)
	}
	f := tr.durMS("paper.format")
	covered += sum(f) + sum(tr.durMS("paper.gc")) + sum(tr.durMS("paper.cal"))
	wallMS := sum(tr.durMS("paper.pass"))
	layer["paper.format_ms"] = sum(f) / float64(passes)
	layer["paper.recon_gap_pct"] = 100 * (wallMS - covered) / wallMS
	finding(layer["paper.recon_gap_pct"] > 1, "paper_full: artifact, format, collection and calibration spans leave %.2f%% of pass wall time uncovered", layer["paper.recon_gap_pct"])
	return r, nil
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// finding reports a reconciliation gap on stderr: it is a result about the
// system, never hidden and never a benchmark failure.
func finding(cond bool, format string, args ...any) {
	if cond {
		fmt.Fprintf(os.Stderr, "perfbench: finding: "+format+"\n", args...)
	}
}
