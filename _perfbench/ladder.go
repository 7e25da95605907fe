package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"uvmdiscard"
	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/dnn"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/jsonl"
	"uvmdiscard/internal/pcie"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
	"uvmdiscard/internal/workloads/fir"
	"uvmdiscard/internal/workloads/graph"
	"uvmdiscard/internal/workloads/hashjoin"
	"uvmdiscard/internal/workloads/radixsort"
)

// The ladder calls one public entry point per layer, each in isolation, so
// a moved end-to-end number can be traced to the layer that moved it:
// warm launch (cuda over core) -> one workload run -> checkpoint encode,
// write and restore -> one journal append+fsync.

const (
	ladderLaunches = 200_000 // warm launches timed
	ladderRepeats  = 5       // runs per workload; the median is reported
	ladderWrites   = 20      // checkpoint file writes
	ladderAppends  = 200     // journal appends
)

func runLadder(e *env, tr *tracer, layer map[string]float64) error {
	if err := warmLaunch(tr, layer); err != nil {
		return err
	}
	if err := workloadLadder(tr, layer); err != nil {
		return err
	}
	if err := checkpointLadder(e, tr, layer); err != nil {
		return err
	}
	return journalLadder(e, tr, layer)
}

// warmLaunch times Stream.Launch of a kernel re-reading a GPU-resident
// buffer: the steady-state path of every kernel once data is on the GPU.
func warmLaunch(tr *tracer, layer map[string]float64) error {
	ctx, err := uvmdiscard.NewContext(uvmdiscard.Config{GPU: uvmdiscard.RTX3080Ti()})
	if err != nil {
		return err
	}
	buf, err := ctx.MallocManaged("resident", 64*uvmdiscard.MiB)
	if err != nil {
		return err
	}
	s := ctx.Stream("main")
	if err := s.PrefetchAll(buf, uvmdiscard.ToGPU); err != nil {
		return err
	}
	k := uvmdiscard.Kernel{Name: "rescan", Accesses: []uvmdiscard.Access{{Buf: buf, Mode: uvmdiscard.Read}}}
	for i := 0; i < 1000; i++ {
		if err := s.Launch(k); err != nil {
			return err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t := time.Now()
	for i := 0; i < ladderLaunches; i++ {
		if err := s.Launch(k); err != nil {
			return err
		}
	}
	d := tr.end("cuda.warm_launch", "ladder", "ladder", t)
	runtime.ReadMemStats(&m1)
	layer["cuda.warm_launch_ns"] = float64(d.Nanoseconds()) / ladderLaunches
	layer["cuda.warm_launch_allocs"] = float64(m1.Mallocs-m0.Mallocs) / ladderLaunches
	return nil
}

// workloadLadder runs each workload once per repeat at its paper
// configuration under UvmDiscard at 200% oversubscription (DNN: VGG-16 at
// an oversubscribing batch), reporting host time and the exact simulated
// traffic.
func workloadLadder(tr *tracer, layer map[string]float64) error {
	p := workloads.Platform{GPU: gpudev.RTX3080Ti(), Gen: pcie.Gen4, OversubPercent: 200}
	sys := workloads.UvmDiscard
	runs := []struct {
		name, metric string
		run          func() (workloads.Result, error)
	}{
		{"fir", "fir.run_ms", func() (workloads.Result, error) { return fir.Run(p, sys, fir.DefaultConfig()) }},
		{"radixsort", "radixsort.run_ms", func() (workloads.Result, error) { return radixsort.Run(p, sys, radixsort.DefaultConfig()) }},
		{"hashjoin", "hashjoin.run_ms", func() (workloads.Result, error) { return hashjoin.Run(p, sys, hashjoin.DefaultConfig()) }},
		{"graph", "graph.run_ms", func() (workloads.Result, error) { return graph.Run(p, sys, graph.DefaultConfig()) }},
		{"dnn", "dnn.train_ms", func() (workloads.Result, error) {
			r, err := dnn.Train(workloads.DefaultPlatform(), sys, dnn.TrainConfig{Model: dnn.VGG16(), Batch: 100})
			return r.Result, err
		}},
	}
	var hostNS, simMB float64
	for _, w := range runs {
		var times []float64
		var res workloads.Result
		for i := 0; i < ladderRepeats; i++ {
			t := tr.start()
			r, err := w.run()
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			times = append(times, ms(tr.end(w.name+".run", "ladder", "ladder", t)))
			res = r
		}
		layer[w.metric] = median(times)
		layer[w.name+".sim_GB"] = res.TrafficGB()
		hostNS += median(times) * 1e6
		simMB += float64(res.TrafficBytes) / 1e6
	}
	layer["core.host_ns_per_sim_MB"] = hostNS / simMB
	return nil
}

// checkpointLadder measures the snapshot path on the quick FIR run uvmsimd
// checkpoints: capture+encode per step (checkpointed run minus plain run,
// divided by the snapshots taken), blob size, WriteFile, and restore from
// the final snapshot.
func checkpointLadder(e *env, tr *tracer, layer map[string]float64) error {
	cfg := fir.DefaultConfig()
	cfg.InputBytes, cfg.WindowBytes = 512*units.MiB, 64*units.MiB
	p := workloads.Platform{GPU: gpudev.Generic(1536 * units.MiB), Gen: pcie.Gen4, OversubPercent: 200}
	sys := workloads.UvmDiscard

	var plain, ckpt, restore []float64
	var blobs [][]byte
	for i := 0; i < ladderRepeats; i++ {
		t := tr.start()
		if _, err := fir.Run(p, sys, cfg); err != nil {
			return err
		}
		plain = append(plain, ms(tr.end("fir.quick_run", "ladder", "ladder", t)))

		blobs = blobs[:0]
		env := &checkpoint.Env{Every: 1, Save: func(b []byte) error {
			blobs = append(blobs, append([]byte(nil), b...))
			return nil
		}}
		t = tr.start()
		if _, err := fir.RunCheckpointed(p, sys, cfg, env); err != nil {
			return err
		}
		ckpt = append(ckpt, ms(tr.end("checkpoint.run", "ladder", "ladder", t)))
		if env.Stats.Captures != quickFIRSteps || len(blobs) != quickFIRSteps {
			return fmt.Errorf("checkpointed quick FIR took %d snapshots, want %d", env.Stats.Captures, quickFIRSteps)
		}
	}
	for i := 0; i < ladderRepeats; i++ {
		env := &checkpoint.Env{Restore: blobs[len(blobs)-1]}
		t := tr.start()
		if _, err := fir.RunCheckpointed(p, sys, cfg, env); err != nil {
			return err
		}
		restore = append(restore, ms(tr.end("checkpoint.restore", "ladder", "ladder", t)))
		if !env.Stats.Resumed {
			return fmt.Errorf("restore from the final snapshot was rejected")
		}
	}
	var size float64
	for _, b := range blobs {
		size += float64(len(b))
	}
	var writes []float64
	path := filepath.Join(e.work, "ladder.ckpt")
	for i := 0; i < ladderWrites; i++ {
		t := tr.start()
		if err := checkpoint.WriteFile(path, blobs[i%len(blobs)]); err != nil {
			return err
		}
		writes = append(writes, ms(tr.end("checkpoint.write", "ladder", "ladder", t)))
	}
	layer["checkpoint.blob_KB"] = size / float64(len(blobs)) / 1e3
	layer["checkpoint.capture_encode_ms"] = (median(ckpt) - median(plain)) / quickFIRSteps
	layer["checkpoint.write_ms"] = median(writes)
	layer["checkpoint.restore_ms"] = median(restore)
	return nil
}

// journalLadder times jsonl.Append (write + fsync) of a fleet-sized record
// on the same disk the daemons' journals live on.
func journalLadder(e *env, tr *tracer, layer map[string]float64) error {
	a, err := jsonl.Open(filepath.Join(e.work, "ladder.jsonl"), func([]byte) error { return nil })
	if err != nil {
		return err
	}
	rec := []byte(`{"op":"lease","id":"fj-100000","attempt":1,"worker":"perfbench-worker","seq":100000}`)
	var us []float64
	for i := 0; i < ladderAppends; i++ {
		t := tr.start()
		if err := a.Append(rec); err != nil {
			a.Close()
			return err
		}
		us = append(us, float64(tr.end("jsonl.append", "ladder", "ladder", t))/1e3)
	}
	layer["jsonl.append_us"] = median(us)
	return a.Close()
}
