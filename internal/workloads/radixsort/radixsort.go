// Package radixsort models the paper's Radix-sort micro-benchmark (§7.3):
// a large key/value array sorted digit by digit, ping-ponging between the
// input buffer and a temporary buffer. Each round launches a local-sort
// kernel (input → temp; the input is then dead and discardable) and a
// reorder kernel (temp → input; the temp is then dead and discardable).
//
// The kernels interleave scattered reads of the source with scattered
// writes of the destination over a combined footprint of twice the data
// size, in several passes. When that footprint exceeds available GPU
// memory, every sweep misses nearly everywhere under LRU — the GPU
// *thrashing* that dominates Tables 5 and 6 and that discard cannot fix
// ("it remains difficult to solve GPU thrashing"). Discard still removes
// the inter-kernel transfers of dead ping-pong buffers.
//
// Prefetches are issued only when memory is not oversubscribed (the paper's
// "proper prefetching" policy): prefetching a working set larger than the
// GPU usually does more harm. That also means the lazy flavor can only be
// used where its mandatory pairing prefetch exists — when the data fits —
// which is exactly the §7.1 caveat.
package radixsort

import (
	"fmt"

	"uvmdiscard/internal/core"
	"uvmdiscard/internal/cuda"
	"uvmdiscard/internal/gpudev"
	"uvmdiscard/internal/sim"
	"uvmdiscard/internal/units"
	"uvmdiscard/internal/workloads"
)

// Config sizes the benchmark.
type Config struct {
	// DataBytes is the key/value array size; the temp buffer matches it.
	// The paper's run moves 5 GB at <100%.
	DataBytes units.Size
	// Rounds is the number of radix digit rounds (4 for 32-bit keys with
	// 8-bit digits); each round runs two kernels.
	Rounds int
	// Passes is how many interleaved sweeps each kernel makes over its
	// source and destination.
	Passes int
	// StripBytes is the interleaving granularity between source reads and
	// destination writes.
	StripBytes units.Size
	// SortRate is the kernel's effective processing rate (bytes touched
	// per second) when data is local.
	SortRate float64
}

// DefaultConfig reproduces the paper's setup.
func DefaultConfig() Config {
	return Config{
		DataBytes:  5_000_000_000,
		Rounds:     4,
		Passes:     2,
		StripBytes: 256 * units.MiB,
		SortRate:   350e9,
	}
}

// Preset returns a fresh run at the paper's size on the RTX 3080 Ti or,
// with quick, at the scaled-down size of the quick suite and quick service
// jobs, and the GPU the preset runs on.
func Preset(quick bool) (*Sort, gpudev.Profile) {
	r, gpu := &Sort{Config: DefaultConfig()}, gpudev.RTX3080Ti()
	if quick {
		r.DataBytes, r.StripBytes, gpu = 256*units.MiB, 32*units.MiB, gpudev.Generic(768*units.MiB)
	}
	return r, gpu
}

// Footprint is the application's GPU memory consumption: data + temp.
func (c Config) Footprint() units.Size {
	return 2 * units.AlignUp(c.DataBytes, units.BlockSize)
}

func (c Config) validate() error {
	if c.DataBytes == 0 || c.Rounds <= 0 || c.Passes <= 0 ||
		c.StripBytes == 0 || c.SortRate <= 0 {
		return fmt.Errorf("radixsort: invalid config %+v", c)
	}
	return nil
}

// Run executes the radix sort under the given system and platform.
func Run(p workloads.Platform, sys workloads.System, cfg Config) (workloads.Result, error) {
	return workloads.Run(p, sys, &Sort{Config: cfg}, nil)
}

// Sort is one radix-sort run for workloads.Run, one kernel per step.
// It does not checkpoint: only FIR is a workloads.Resumer.
type Sort struct {
	Config

	sys     workloads.System
	s       *cuda.Stream
	kv, tmp *cuda.Buffer
	rng     *sim.RNG
	fits    bool
}

// Name implements workloads.Stepper.
func (r *Sort) Name() string { return "radixsort" }

// Steps is two kernels per digit round.
func (r *Sort) Steps() int { return 2 * r.Rounds }

// Setup allocates the key/value and temp buffers and has the host generate
// the unsorted keys.
func (r *Sort) Setup(ctx *cuda.Context, p workloads.Platform, sys workloads.System) (err error) {
	if err := workloads.RequireUVM("radixsort", sys); err != nil {
		return err
	}
	if err := r.validate(); err != nil {
		return err
	}
	if r.kv, err = ctx.MallocManaged("radix-kv", r.DataBytes); err != nil {
		return err
	}
	if r.tmp, err = ctx.MallocManaged("radix-tmp", r.DataBytes); err != nil {
		return err
	}
	if err := r.kv.HostWrite(0, r.kv.Size()); err != nil {
		return err
	}
	r.sys, r.fits = sys, p.OversubPercent <= 100
	r.s = ctx.Stream("main")
	r.rng = sim.NewRNG(0xadc0de)
	return nil
}

// Step runs kernel i: a local sort (kv → tmp) on even steps, a reorder
// (tmp → kv) on odd ones. Step 0 first places the data on the GPU when it
// fits.
func (r *Sort) Step(i int) error {
	if i == 0 && r.fits {
		if err := r.s.PrefetchAll(r.kv, cuda.ToGPU); err != nil {
			return err
		}
		if err := r.s.PrefetchAll(r.tmp, cuda.ToGPU); err != nil {
			return err
		}
	}
	name, src, dst := "local-sort", r.kv, r.tmp
	if i%2 == 1 {
		name, src, dst = "reorder", r.tmp, r.kv
	}
	if err := r.s.Launch(sortKernel(name, src, dst, r.Config, r.rng)); err != nil {
		return err
	}
	// The source is dead: its contents moved to dst. Lazy is only usable
	// where the pairing prefetch is issued (fits).
	if err := workloads.DiscardPaired(r.sys, r.s, src, r.fits); err != nil {
		return err
	}
	if !r.fits {
		return nil
	}
	// Re-pre-fault the discarded buffer before its reuse: mandatory for
	// lazy, beneficial for eager (§4.2), but only when not oversubscribed.
	return r.s.PrefetchAll(src, cuda.ToGPU)
}

// sortKernel builds one radix kernel: interleaved scattered strips of
// source reads and destination writes, swept Passes times.
func sortKernel(name string, src, dst *cuda.Buffer, cfg Config, rng *sim.RNG) cuda.Kernel {
	strips := int((cfg.DataBytes + cfg.StripBytes - 1) / cfg.StripBytes)
	var accesses []cuda.Access
	touched := 0.0
	for p := 0; p < cfg.Passes; p++ {
		srcOrder := rng.Perm(strips)
		dstOrder := rng.Perm(strips)
		for i := 0; i < strips; i++ {
			so := units.Size(srcOrder[i]) * cfg.StripBytes
			do := units.Size(dstOrder[i]) * cfg.StripBytes
			accesses = append(accesses,
				cuda.Access{Buf: src, Offset: so, Length: stripLen(cfg, so), Mode: core.Read, Scatter: true},
				cuda.Access{Buf: dst, Offset: do, Length: stripLen(cfg, do), Mode: core.ReadWrite, Scatter: true},
			)
			touched += float64(stripLen(cfg, so) + stripLen(cfg, do))
		}
	}
	return cuda.Kernel{
		Name:     name,
		Compute:  sim.TransferTime(uint64(touched), cfg.SortRate),
		Accesses: accesses,
	}
}

func stripLen(cfg Config, off units.Size) units.Size {
	return min(cfg.StripBytes, cfg.DataBytes-off)
}
