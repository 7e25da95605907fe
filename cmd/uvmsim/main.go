// Command uvmsim runs a single workload under one memory-management system
// and prints runtime, traffic, and driver instrumentation.
//
// Usage:
//
//	uvmsim -workload fir -system UvmDiscard -ovsp 200
//	uvmsim -workload radixsort -system UVM-opt -pcie 3
//	uvmsim -workload hashjoin -system UvmDiscardLazy -ovsp 300
//	uvmsim -workload dl -model resnet53 -batch 115 -system UvmDiscard
//	uvmsim -workload dl -model vgg16 -batch 60 -system PyTorch-LMS -gpu gtx1070
//	uvmsim -workload infer -batch 64 -discard -readmostly
//	uvmsim -workload fir -ovsp 200 -json
//	uvmsim -workload radixsort -ovsp 200 -faults seed=7,dma=0.05,unmap=0.01,fbcap=4
//	uvmsim -workload fir -ovsp 400 -cpuprofile cpu.out -memprofile mem.out
//
// The -cpuprofile/-memprofile flags write pprof profiles of the run, the
// entry point `make profile` uses to attribute driver hot-path time
// (DESIGN.md §15).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/faultinject"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/lms"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/catalog"
	"uvmdiscard/internal/workloads/graph"
)

var jsonOut = flag.Bool("json", false, "emit the result as JSON (for scripting)")

func main() {
	var (
		workload = flag.String("workload", "fir", strings.Join(append(catalog.Names(), "dl", "infer"), " | "))
		system   = flag.String("system", "UVM-opt", "UVM-opt | UvmDiscard | UvmDiscardLazy | No-UVM | PyTorch-LMS")
		ovsp     = flag.Int("ovsp", 0, "oversubscription percent (0 = fits; 200/300/400 reserve GPU memory)")
		gen      = flag.Int("pcie", 4, "PCIe generation (3 or 4)")
		gpu      = flag.String("gpu", "3080ti", "3080ti | gtx1070")
		model    = flag.String("model", "vgg16", "dl model: vgg16 | darknet19 | resnet53 | rnn")
		batch    = flag.Int("batch", 75, "dl batch size")
		steps    = flag.Int("steps", 0, "dl training steps (0 = default)")
		disc     = flag.Bool("discard", false, "infer: discard activations")
		recomp   = flag.Bool("recompute", false, "dl: train with activation recomputation")
		readMost = flag.Bool("readmostly", false, "infer/graph: advise SetReadMostly on weights/edges")
		weights  = flag.String("weights", "18GiB", "infer: total served model weights")
		faults   = flag.String("faults", "", "fault-injection spec, e.g. seed=7,dma=0.02,unmap=0.005,poison=0.001,fbcap=8,slow=pcie@1ms+5ms*3")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile (after GC) to this file at exit")
	)
	flag.Parse()

	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprof != "" {
		defer writeMemProfile(*memprof)
	}

	sys, err := workloads.ParseSystem(*system)
	if err != nil {
		fail(err)
	}
	p := workloads.Platform{
		Gen:            pcie.Generation(*gen),
		OversubPercent: *ovsp,
	}
	if *faults != "" {
		fcfg, err := faultinject.ParseSpec(*faults)
		if err != nil {
			fail(err)
		}
		p.Faults = fcfg
	}
	switch strings.ToLower(*gpu) {
	case "3080ti":
		p.GPU = gpudev.RTX3080Ti()
	case "gtx1070":
		p.GPU = gpudev.GTX1070()
	default:
		fail(fmt.Errorf("unknown GPU %q", *gpu))
	}

	switch strings.ToLower(*workload) {
	case "infer", "inference":
		total, err := units.Parse(*weights)
		if err != nil {
			fail(err)
		}
		r, err := dnn.Infer(p, dnn.InferConfig{
			Model: dnn.LargeModel(total, 24), Batch: *batch, Requests: *steps,
			Discard: *disc, AdviseWeights: *readMost,
		})
		reportTrain(r, err)
	case "dl", "dnn":
		m, err := dnn.ModelByName(*model)
		if err != nil {
			fail(err)
		}
		if sys == workloads.PyTorchLMS {
			r, err := lms.Train(p, lms.Config{Model: m, Batch: *batch, Steps: *steps})
			reportTrain(r, err)
			return
		}
		r, err := dnn.Train(p, sys, dnn.TrainConfig{
			Model: m, Batch: *batch, Steps: *steps, Recompute: *recomp,
		})
		reportTrain(r, err)
	default:
		w, err := catalog.Lookup(*workload)
		if err != nil {
			fail(fmt.Errorf("unknown workload %q (want %s)", *workload, flag.Lookup("workload").Usage))
		}
		s, _ := w.New(false)
		if g, ok := s.(*graph.BFS); ok {
			g.ReadMostlyEdges = *readMost
		}
		report(workloads.Run(p, sys, s, nil))
	}
}

func report(r workloads.Result, err error) {
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		emitJSON(map[string]any{
			"system":      r.System.String(),
			"runtimeNs":   int64(r.Runtime),
			"trafficGB":   gb(r.TrafficBytes),
			"h2dGB":       gb(r.H2DBytes),
			"d2hGB":       gb(r.D2HBytes),
			"savedH2DGB":  gb(r.SavedH2D),
			"savedD2HGB":  gb(r.SavedD2H),
			"faultH2DGB":  gb(r.FaultH2D),
			"evictD2HGB":  gb(r.EvictD2H),
			"remoteH2DGB": gb(r.RemoteH2D),
			"resilience": map[string]any{
				"migrateRetries": r.MigrateRetries,
				"unmapRetries":   r.UnmapRetries,
				"faultReplays":   r.FaultReplays,
				"degradedXfers":  r.DegradedXfers,
				"poisonedChunks": r.PoisonedChunks,
			},
		})
		return
	}
	fmt.Printf("system:    %v\n", r.System)
	fmt.Printf("runtime:   %v\n", r.Runtime)
	fmt.Printf("traffic:   %.2f GB (H2D %.2f, D2H %.2f)\n",
		gb(r.TrafficBytes), gb(r.H2DBytes), gb(r.D2HBytes))
	fmt.Printf("breakdown: fault H2D %.2f, prefetch H2D %.2f, eviction D2H %.2f, migration D2H %.2f\n",
		gb(r.FaultH2D), gb(r.PrefetchH2D), gb(r.EvictD2H), gb(r.MigrateD2H))
	fmt.Printf("saved by discard: H2D %.2f GB, D2H %.2f GB\n", gb(r.SavedH2D), gb(r.SavedD2H))
	if r.MigrateRetries+r.UnmapRetries+r.FaultReplays+r.DegradedXfers+r.PoisonedChunks != 0 {
		fmt.Printf("resilience: %d migrate retries, %d unmap reissues, %d fault replays, %d degraded, %d poisoned chunks\n",
			r.MigrateRetries, r.UnmapRetries, r.FaultReplays, r.DegradedXfers, r.PoisonedChunks)
	}
}

func reportTrain(r dnn.TrainResult, err error) {
	if err != nil {
		fail(err)
	}
	if *jsonOut {
		emitJSON(map[string]any{
			"system":      r.System.String(),
			"runtimeNs":   int64(r.Runtime),
			"trafficGB":   gb(r.TrafficBytes),
			"footprintGB": gb(uint64(r.Footprint)),
			"throughput":  r.Throughput,
		})
		return
	}
	report(r.Result, nil)
	fmt.Printf("footprint: %.2f GB\n", gb(uint64(r.Footprint)))
	fmt.Printf("throughput: %.1f img/s\n", r.Throughput)
}

func emitJSON(v map[string]any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(err)
	}
}

func gb(n uint64) float64 { return float64(n) / 1e9 }

// writeMemProfile snapshots the heap after a final GC so the profile shows
// live retention, not transient garbage.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "uvmsim: %v\n", err)
	os.Exit(1)
}
