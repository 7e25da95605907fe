// Package fir models the paper's FIR micro-benchmark (§7.2): a finite
// impulse response filter streaming over a large input buffer in windows.
// Each iteration prefetches one window of host data to the GPU, runs the
// filter kernel over it, and writes the corresponding output window. The
// input window is dead as soon as the kernel finishes — the discard target.
//
// Traffic structure this produces (Table 4): the input (5.66 GB) is always
// prefetched H2D. Under oversubscription, UVM-opt evicts consumed input
// windows and freshly written output windows D2H as new windows arrive —
// the input portion of that eviction traffic is entirely redundant. The
// discard directive routes consumed windows to the discarded queue, which
// the eviction process drains for free; only live output spills remain.
package fir

import (
	"fmt"

	"uvmdiscard/internal/checkpoint"
	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the benchmark. The zero value is invalid; use DefaultConfig.
type Config struct {
	// InputBytes is the total filter input; the paper streams 5.66 GB.
	InputBytes units.Size
	// WindowBytes is the sliding-window granularity.
	WindowBytes units.Size
	// FilterRate is the kernel's effective processing rate in input
	// bytes/second when all data is local (compute time per window =
	// WindowBytes / FilterRate).
	FilterRate float64
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		InputBytes:  5_660_000_000,
		WindowBytes: 256 * units.MiB,
		FilterRate:  28e9,
	}
}

// Preset returns a fresh run at the paper's size on the RTX 3080 Ti or,
// with quick, at the scaled-down size of the quick suite and quick service
// jobs, and the GPU the preset runs on.
func Preset(quick bool) (*Filter, gpudev.Profile) {
	f, gpu := &Filter{Config: DefaultConfig()}, gpudev.RTX3080Ti()
	if quick {
		f.InputBytes, f.WindowBytes, gpu = 512*units.MiB, 64*units.MiB, gpudev.Generic(1536*units.MiB)
	}
	return f, gpu
}

// Footprint returns the application's GPU memory consumption: the input
// plus the equally sized output, which is produced on the GPU.
func (c Config) Footprint() units.Size {
	return 2 * units.AlignUp(c.InputBytes, units.BlockSize)
}

// Run executes FIR under the given system and platform and reports runtime
// and traffic. A run interrupted by the platform's run control (cancel,
// wall deadline, sim budget) returns a *runctl.Interrupt error.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (workloads.Result, error) {
	return workloads.Run(p, sys, &Filter{Config: cfg}, nil)
}

// RunCheckpointed is Run with a checkpoint environment (see workloads.Run).
func RunCheckpointed(p workloads.Platform, sys workloads.System, cfg Config, env *checkpoint.Env) (workloads.Result, error) {
	return workloads.Run(p, sys, &Filter{Config: cfg}, env)
}

// Filter is one FIR run for workloads.Run: step i filters window i. It is
// a workloads.Resumer, because between windows its only state besides the
// driver's is the four handles it rebinds by name.
type Filter struct {
	Config

	ctx             *cuda.Context
	sys             workloads.System
	in, out         *cuda.Buffer
	copyS, computeS *cuda.Stream
	accesses        []cuda.Access
}

// Name implements workloads.Stepper.
func (f *Filter) Name() string { return "fir" }

// Steps is the number of windows.
func (f *Filter) Steps() int { return int((f.InputBytes + f.WindowBytes - 1) / f.WindowBytes) }

func (f *Filter) validate(sys workloads.System) error {
	if err := workloads.RequireUVM("fir", sys); err != nil {
		return err
	}
	if f.WindowBytes == 0 || f.InputBytes == 0 || f.FilterRate <= 0 {
		return fmt.Errorf("fir: invalid config %+v", f.Config)
	}
	return nil
}

// Setup allocates the input and output and has the host generate the full
// input signal.
func (f *Filter) Setup(ctx *cuda.Context, _ workloads.Platform, sys workloads.System) (err error) {
	if err := f.validate(sys); err != nil {
		return err
	}
	if f.in, err = ctx.MallocManaged("fir-in", f.InputBytes); err != nil {
		return err
	}
	if f.out, err = ctx.MallocManaged("fir-out", f.InputBytes); err != nil {
		return err
	}
	if err := f.in.HostWrite(0, f.in.Size()); err != nil {
		return err
	}
	f.bind(ctx, sys, ctx.Stream("copy"), ctx.Stream("compute"))
	return nil
}

// Digest identifies a FIR configuration for checkpoint compatibility. Its
// inputs are part of the on-disk snapshot format: changing them orphans
// every snapshot already written.
func (f *Filter) Digest(p workloads.Platform, sys workloads.System) string {
	params := "default"
	if p.Params != nil {
		params = fmt.Sprintf("%+v", *p.Params)
	}
	return checkpoint.Digest("fir/1", sys, p.GPU, p.Gen, p.OversubPercent, params,
		f.InputBytes, f.WindowBytes, f.FilterRate)
}

// Resume rebinds the buffers and streams of a restored run.
func (f *Filter) Resume(ctx *cuda.Context, _ workloads.Platform, sys workloads.System, r *checkpoint.Restored) error {
	if err := f.validate(sys); err != nil {
		return err
	}
	f.in, f.out = r.Bufs["fir-in"], r.Bufs["fir-out"]
	copyS, computeS := r.Streams["copy"], r.Streams["compute"]
	if f.in == nil || f.out == nil || copyS == nil || computeS == nil {
		return fmt.Errorf("fir: snapshot is missing the fir buffers or streams")
	}
	f.bind(ctx, sys, copyS, computeS)
	return nil
}

func (f *Filter) bind(ctx *cuda.Context, sys workloads.System, copyS, computeS *cuda.Stream) {
	f.ctx, f.sys, f.copyS, f.computeS = ctx, sys, copyS, computeS
	// One access list reused across windows: only the window offset/length
	// change per launch, so the slice is built once instead of per kernel.
	f.accesses = []cuda.Access{
		{Buf: f.in, Mode: core.Read},
		{Buf: f.out, Mode: core.Write},
	}
}

// Step prefetches window i, filters it and discards the consumed input.
func (f *Filter) Step(i int) error {
	off := units.Size(i) * f.WindowBytes
	win := min(f.WindowBytes, f.InputBytes-off)
	// Prefetch the next input window and prefault the output window on
	// the copy stream — this is the overlap the "-opt" baseline uses.
	if err := f.copyS.MemPrefetchAsync(f.in, off, win, cuda.ToGPU); err != nil {
		return err
	}
	if err := f.copyS.MemPrefetchAsync(f.out, off, win, cuda.ToGPU); err != nil {
		return err
	}
	ready := f.ctx.NewEvent()
	f.copyS.RecordEvent(ready)
	f.computeS.WaitEvent(ready)

	f.accesses[0].Offset, f.accesses[0].Length = off, win
	f.accesses[1].Offset, f.accesses[1].Length = off, win
	err := f.computeS.Launch(cuda.Kernel{
		Name:     "fir",
		Compute:  sim.TransferTime(uint64(win), f.FilterRate),
		Accesses: f.accesses,
	})
	if err != nil {
		return err
	}
	// The consumed window is dead: discard it (stream-ordered after the
	// kernel, §4.2). FIR's windows are never reused, so the lazy flavor
	// needs no pairing prefetch.
	return workloads.DiscardRange(f.sys, f.computeS, f.in, off, win)
}
